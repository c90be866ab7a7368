(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the last line of stdout is the end-to-end metrics, with
   --trace 1 the per-layer metrics; both as listed in BENCHMARK.json,
   which is read from the working directory. Exit code 0 only when every
   output check passed. *)

module H = Harness
module Json = Acs_util.Json

type workload = {
  aliases : (string * string) list;
      (** workload-specific names of end-to-end metrics, for the report *)
  setup : seed:int -> unit;
  run : seed:int -> seconds:float -> traced:bool -> (string * float) list;
  in_process : bool;
      (** set-up and peak RSS are measured here, on this process; the
          daemon workload measures its own *)
}

let workloads =
  [
    ( "sweep-cold",
      { aliases = [ ("throughput_per_s", "sweep_points_per_s") ];
        setup = (fun ~seed -> ignore (Wl_sweep.setup ~seed)); run = Wl_sweep.run; in_process = true } );
    ( "search-adaptive",
      { aliases = [ ("throughput_per_s", "search_per_s") ];
        setup = (fun ~seed -> ignore (Wl_search.setup ~seed)); run = Wl_search.run; in_process = true } );
    ( "fleet-stream",
      { aliases = [ ("throughput_per_s", "fleet_sim_requests_per_s") ];
        setup = (fun ~seed -> ignore (Wl_fleet.setup ~seed)); run = Wl_fleet.run; in_process = true } );
    ( "daemon-mixed",
      { aliases =
          [ ("throughput_per_s", "daemon_jobs_per_s"); ("op_p50_ms", "daemon_job_p50_ms");
            ("op_p95_ms", "daemon_job_p95_ms") ];
        setup = (fun ~seed:_ -> ()); run = Wl_daemon.run; in_process = false } );
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --setup-only --workload NAME --seed N";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* (name, unit) of each metric in one BENCHMARK.json list. *)
let declared key =
  let j =
    try Json.of_file "BENCHMARK.json"
    with Sys_error _ | Json.Error _ -> die "cannot read BENCHMARK.json in the working directory"
  in
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key j))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--setup-only" :: rest -> parse (("setup-only", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" in
  if name = "all" then begin
    (* Every workload in turn, each in its own process. *)
    let failed =
      List.filter
        (fun (w, _) ->
          let argv = Array.map (fun a -> if a = "all" then w else a) Sys.argv in
          let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
          snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
        workloads
    in
    exit (if failed = [] then 0 else 1)
  end;
  let wl = match List.assoc_opt name workloads with Some w -> w | None -> die "unknown workload %S" name in
  let seed = int_arg "seed" in
  (* Every workload runs at one job per CPU. *)
  let nproc = H.nproc () in
  Unix.putenv "ACS_JOBS" (string_of_int nproc);
  if List.mem_assoc "setup-only" opts then begin
    wl.setup ~seed;
    print_endline "ready";
    exit 0
  end;
  let seconds = float_of_int (int_arg "seconds") in
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds <= 0. then usage ();
  let wanted = declared (if traced then "per_layer" else "end_to_end") in
  let provenance =
    [ ("workload", Json.string name);
      ("seed", Json.int seed);
      ("seconds", Json.float seconds);
      ("trace", Json.bool traced);
      ("git_commit", Json.string (Lazy.force Acs_experiments.Common.git_commit));
      ("nproc", Json.int nproc);
      ("acs_jobs", Json.string (Option.value ~default:"" (Sys.getenv_opt "ACS_JOBS")));
      ("ocaml_version", Json.string Sys.ocaml_version) ]
  in
  let result values =
    let metrics =
      List.map
        (fun (n, u) ->
          let v =
            match List.assoc_opt n values with
            | Some v -> v
            | None -> if traced then 0. (* a layer this workload never calls *) else nan
          in
          H.m n u v)
        wanted
    in
    exit (if H.print_result ~provenance ~aliases:(if traced then [] else wl.aliases) metrics then 0 else 1)
  in
  (* Set-up: the median of fresh child processes, sampled during the
     loop, plus this process's pool spin-up (a one-off per process). *)
  if traced then ignore (Lazy.force H.span_cost_us)
  else if wl.in_process then
    H.sample_setup_during [| "--setup-only"; "--workload"; name; "--seed"; string_of_int seed |] ~seconds;
  let spin = match H.spin_up () with Some s -> s | None -> result [] in
  let values = wl.run ~seed ~seconds ~traced in
  let values =
    if wl.in_process && not traced then
      ("setup_s", H.setup_median () +. spin) :: ("peak_rss_mb", H.peak_rss_mb "self") :: values
    else values
  in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n wanted) then die "workload reported undeclared metric %s" n)
    values;
  if traced then H.write_spans (Filename.concat H.work_dir (Printf.sprintf "spans-%s-%d.jsonl" name seed));
  result values
