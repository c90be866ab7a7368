(* Persistent on-disk tier under the in-memory [Eval] cache: one JSON
   record per evaluated (context, point) pair, so repeated studies - and
   separate processes - resume instead of re-simulating. Only the
   latencies are stored; everything else in a [Design.t] is derived
   deterministically from the built device, so [Design.of_latencies]
   reconstitutes a bitwise-equal value on load (the test suite asserts
   it). Latencies are stored as the hex of their IEEE-754 bits - exact by
   construction, and immune to any printer subtlety - with a readable
   decimal duplicate alongside for humans.

   A record's file name is a function of (context, point), so the tier
   needs no index: [open_dir] reads nothing, [find] reads the one file
   the point would live in, and a job costs O(its own points) however
   large the directory has grown. Writes go to a temp file in the same
   directory followed by a [Sys.rename], so a crash mid-write leaves at
   worst a [.part] file no lookup ever opens; a truncated or garbage
   record is counted in [stats.skipped], answered as a miss, and
   overwritten by the next store of that point. Records carry a version
   field: bumping [version] orphans every existing entry (a miss on
   read), which is the invalidation story when the perf model changes. *)

module Json = Acs_util.Json

let version = 1
let default_dir = Filename.concat "results" "cache"

type stats = { hits : int; stores : int; skipped : int }

type t = {
  dir : string;
  ctx_tag : string;  (** hex of [Scenario.context_hash], for filenames *)
  ctx_str : string;  (** canonical context JSON, compared on read *)
  scenario : Scenario.t;
  mutable hits : int;
  mutable stores : int;
  mutable skipped : int;
}

(* The canonical context string: the scenario manifest restricted to the
   members [Scenario.context_equal] actually compares (model, request,
   calib, tp, tpp_target, memory_gb) - name, description, regime and the
   target are sliced off, so e.g. table4 and fig7-gpt3-2400 share disk
   entries exactly as they share the in-memory cache. *)
let context_keys = [ "model"; "request"; "calib"; "tp"; "tpp_target"; "memory_gb" ]

let context_string (s : Scenario.t) =
  let j = Scenario.to_json s in
  Json.to_string
    (Json.Obj
       (List.filter_map
          (fun k -> if Json.mem k j then Some (k, Json.member k j) else None)
          context_keys))

let float_bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)
let bits_float s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))

let entry_path t p =
  (* Content-addressed name: context hash, then two independent hashes of
     the point (the lattice hash plus a string hash of its JSON), so
     distinct points collide with negligible probability and a rewrite of
     the same point lands on the same file (idempotent). *)
  let pj = Json.to_string (Space.params_to_json p) in
  Printf.sprintf "acs-%s-%015x%08x.json" t.ctx_tag
    (Space.params_hash p land 0xfff_ffff_ffff_ffff)
    (Hashtbl.hash pj land 0xffff_ffff)
  |> Filename.concat t.dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One record off disk, expected to hold point [p]. [Error `Foreign] is a
   healthy entry of a different context or point (a hash collision on
   the file name) and is a plain miss; every malformed or version-stale
   shape is [`Skip]. *)
let parse_entry t p text =
  match Json.of_string text with
  | exception Json.Error _ -> Error `Skip
  | j -> (
      match Json.to_int (Json.member "version" j) with
      | exception Json.Error _ -> Error `Skip
      | v when v <> version -> Error `Skip
      | _ -> (
          match Json.to_str (Json.member "context" j) with
          | exception Json.Error _ -> Error `Skip
          | ctx when ctx <> t.ctx_str -> Error `Foreign
          | _ -> (
              match Space.params_of_json (Json.member "params" j) with
              | exception _ -> Error `Skip
              | q when not (Space.params_equal p q) -> Error `Foreign
              | _ -> (
                  try
                    let ttft_s = bits_float (Json.to_str (Json.member "ttft_bits" j)) in
                    let tbt_s = bits_float (Json.to_str (Json.member "tbt_bits" j)) in
                    let s = t.scenario in
                    let device =
                      Space.build ?memory_gb:s.Scenario.memory_gb
                        ~tpp_target:s.Scenario.tpp_target p
                    in
                    Ok (Design.of_latencies p device ~ttft_s ~tbt_s)
                  with _ -> Error `Skip))))

let open_dir ~dir scenario =
  Acs_util.Fs.mkdir_p dir;
  {
    dir;
    ctx_tag = Printf.sprintf "%015x" (Scenario.context_hash scenario land max_int);
    ctx_str = context_string scenario;
    scenario;
    hits = 0;
    stores = 0;
    skipped = 0;
  }

let find t p =
  match read_file (entry_path t p) with
  | exception (Sys_error _ | End_of_file) -> None
  | text -> (
      match parse_entry t p text with
      | Ok d ->
          t.hits <- t.hits + 1;
          Some d
      | Error `Foreign -> None
      | Error `Skip ->
          t.skipped <- t.skipped + 1;
          None)

let store t p (d : Design.t) =
  let finite_or_null f = if Float.is_finite f then Json.float f else Json.Null in
  let record =
    Json.obj
      [
        ("version", Json.int version);
        ("context", Json.string t.ctx_str);
        ("params", Space.params_to_json p);
        ("ttft_bits", Json.string (float_bits d.Design.ttft_s));
        ("tbt_bits", Json.string (float_bits d.Design.tbt_s));
        (* Readable duplicates, informational only (dropped when not
           finite - JSON has no literal for nan/infinity). *)
        ("ttft_s", finite_or_null d.Design.ttft_s);
        ("tbt_s", finite_or_null d.Design.tbt_s);
      ]
  in
  let tmp = Filename.temp_file ~temp_dir:t.dir "acs_write" ".part" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~indent:2 record));
  Sys.rename tmp (entry_path t p);
  t.stores <- t.stores + 1

let stats t = { hits = t.hits; stores = t.stores; skipped = t.skipped }

type tier = Memo | Disk | Cold

let classify disk s p =
  if Eval.probe s p then Memo
  else
    match Option.bind disk (fun t -> find t p) with
    | Some d ->
        Eval.seed s p d;
        Disk
    | None -> Cold
