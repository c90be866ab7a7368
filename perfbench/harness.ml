(* Shared plumbing for the workloads: clocks, order statistics, failure
   accounting, the benchmark's own span recorder, peak-RSS probes and the
   result line. *)

module Json = Acs_util.Json

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) /. 1e9

(* --- order statistics --- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

(* --- failure accounting, per phase --- *)

type phase = { phase : string; mutable attempted : int; mutable failed : int }

let phases : phase list ref = ref []

let phase name =
  match List.find_opt (fun p -> p.phase = name) !phases with
  | Some p -> p
  | None ->
      let p = { phase = name; attempted = 0; failed = 0 } in
      phases := !phases @ [ p ];
      p

let ops_mutex = Mutex.create ()

(* One operation of [phase]: [ok] is its output check. A mismatch is
   reported once on stderr so a failing run says what broke. *)
let op ph ~what ok =
  Mutex.lock ops_mutex;
  ph.attempted <- ph.attempted + 1;
  if not ok then begin
    ph.failed <- ph.failed + 1;
    if ph.failed <= 5 then Printf.eprintf "perfbench: %s: check failed: %s\n%!" ph.phase what
  end;
  Mutex.unlock ops_mutex

let totals () =
  List.fold_left (fun (a, f) p -> (a + p.attempted, f + p.failed)) (0, 0) !phases

(* --- the benchmark's own spans ---

   Spans wrap calls from these files into one layer of the program; the
   program itself is not instrumented. Each span kind keeps exact totals
   (count and time); the most recent spans, with their parents, are kept
   in a bounded ring and written out at the end. *)

type kind = { kname : string; mutable count : int; mutable total_ns : int64 }

type span = { sname : string; id : int; parent : int; start : int64; stop : int64 }

let tracing = ref false
let kinds : kind list ref = ref []

let kind kname =
  match List.find_opt (fun k -> k.kname = kname) !kinds with
  | Some k -> k
  | None ->
      let k = { kname; count = 0; total_ns = 0L } in
      kinds := k :: !kinds;
      k

let ring_cap = 20_000
let ring : span option array = Array.make ring_cap None
let ring_next = ref 0
let next_id = ref 0
let span_mutex = Mutex.create ()

(* Ids of the spans open on the main thread, innermost first. Spans
   from other threads use [record], without a parent. *)
let stack : int list ref = ref []

let fresh_id () =
  incr next_id;
  !next_id

let store k ~id ~parent ~start ~stop =
  k.count <- k.count + 1;
  k.total_ns <- Int64.add k.total_ns (Int64.sub stop start);
  ring.(!ring_next mod ring_cap) <- Some { sname = k.kname; id; parent; start; stop };
  incr ring_next

let with_span k f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = now_ns () in
    let finish () =
      let stop = now_ns () in
      stack := List.tl !stack;
      store k ~id ~parent ~start ~stop
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* A finished span measured elsewhere (a request whose start and end the
   caller observed); safe from any thread. *)
let record k ~start ~stop =
  if !tracing then begin
    Mutex.lock span_mutex;
    store k ~id:(fresh_id ()) ~parent:0 ~start ~stop;
    Mutex.unlock span_mutex
  end

let total_us k = Int64.to_float k.total_ns /. 1e3
let mean_us k = if k.count = 0 then 0. else total_us k /. float_of_int k.count

(* What one span adds to the time it measures: the mean of empty spans,
   taken once with tracing on. Per-call layer times subtract it. *)
let span_cost_us =
  lazy
    (let k = { kname = "span.empty"; count = 0; total_ns = 0L } in
     let was = !tracing in
     tracing := true;
     for _ = 1 to 100_000 do
       with_span k ignore
     done;
     tracing := was;
     Array.fill ring 0 ring_cap None;
     ring_next := 0;
     mean_us k)

let net_us k = if k.count = 0 then 0. else mean_us k -. Lazy.force span_cost_us

let write_spans path =
  Acs_util.Fs.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let first = max 0 (!ring_next - ring_cap) in
      for i = first to !ring_next - 1 do
        match ring.(i mod ring_cap) with
        | Some s ->
            Printf.fprintf oc
              "{\"name\":%S,\"id\":%d,\"parent\":%d,\"start_ns\":%Ld,\"dur_ns\":%Ld}\n"
              s.sname s.id s.parent s.start (Int64.sub s.stop s.start)
        | None -> ()
      done)

(* --- processes and memory --- *)

let nproc () = Domain.recommended_domain_count ()

(* VmHWM of a process, in MB (the kernel's peak resident set). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                    float_of_int kb /. 1024.)
            | _ -> scan ()
            | exception End_of_file -> nan
          in
          scan ())

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Scratch space inside the working directory (the checkout): the daemon
   socket path must stay short, so it is relative. *)
let work_dir = ".perfbench"

let scratch_dir tag =
  Acs_util.Fs.mkdir_p work_dir;
  let d = Filename.concat work_dir (Printf.sprintf "%s%d" tag (Unix.getpid ())) in
  rm_rf d;
  Acs_util.Fs.mkdir_p d;
  d

(* --- set-up time ---

   Set-up is timed on fresh child processes of this executable (run with
   [--setup-only]): from spawning the child until it reports ready, so
   process start, module initialization and input generation are paid
   again on every sample. The host's speed drifts over seconds, so the
   samples are taken between rounds, spread over the measured loop. *)

let setup_samples = 5
let setup_args : string array option ref = ref None
let setup_times : float list ref = ref []
let next_setup_at = ref 0.
let setup_every = ref 0.

let child_setup_s args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let ready = try input_line ic = "ready" with End_of_file -> false in
  let dt = now_s () -. t0 in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when ready -> Some dt
  | _ -> None

let sample_setup args =
  match child_setup_s args with
  | Some t -> setup_times := t :: !setup_times
  | None -> op (phase "setup") ~what:"a set-up child failed" false

let sample_setup_during args ~seconds =
  setup_args := Some args;
  setup_every := seconds /. float_of_int setup_samples;
  next_setup_at := now_s ()

(* Called by every measured loop before each round. *)
let between_rounds () =
  match !setup_args with
  | Some args when now_s () >= !next_setup_at && List.length !setup_times < setup_samples ->
      sample_setup args;
      next_setup_at := !next_setup_at +. !setup_every
  | _ -> ()

(* The median set-up time, after topping up samples a short run missed. *)
let setup_median () =
  Option.iter
    (fun args ->
      while List.length !setup_times < setup_samples do
        sample_setup args
      done)
    !setup_args;
  setup_args := None;
  median !setup_times

(* --- the measured loop --- *)

type measured = {
  rate : float;  (** work per second of operation time *)
  lats_ms : float list;  (** every operation's latency *)
  busy_s : float;  (** total operation time *)
}

(* Repeat [round] until [seconds] have passed (at least once). A round
   returns the work it did and the latency in seconds of each of its
   operations, which run one after another. The rate is total work over
   total operation time: the host's speed drifts by up to 1.5x over
   seconds, and the total weighs every moment of the run alike, so it
   varies less between runs than a median of per-round rates does. *)
let measure ~seconds round =
  let deadline = now_s () +. seconds in
  let work = ref 0. and lats = ref [] and first = ref true in
  while !first || now_s () < deadline do
    first := false;
    between_rounds ();
    let w, l = round () in
    work := !work +. w;
    lats := List.rev_append l !lats
  done;
  let busy_s = sum !lats in
  { rate = !work /. busy_s; lats_ms = List.map (fun x -> x *. 1e3) !lats; busy_s }

(* An in-process workload's measured part. The plain run reports the
   end-to-end metrics of [round]. The traced run measures it for half the
   time without spans and half with, reports the tracing overhead from the
   two rates, then the per-layer metrics [layers plain traced]. *)
let run_rounds ~seconds ~traced round layers =
  if not traced then begin
    let m = measure ~seconds (round (phase "timed")) in
    [ ("throughput_per_s", m.rate);
      ("op_p50_ms", quantile m.lats_ms 0.5);
      ("op_p95_ms", quantile m.lats_ms 0.95) ]
  end
  else begin
    let plain = measure ~seconds:(seconds /. 2.) (round (phase "plain")) in
    tracing := true;
    let traced = measure ~seconds:(seconds /. 2.) (round (phase "traced")) in
    ("tracing.overhead_frac", (plain.rate /. traced.rate) -. 1.) :: layers plain traced
  end

(* The process's first parallel map spawns the domain pool. It can raise:
   the pool's lazily created metric handles may be forced on two domains
   at once. That is counted as a failed set-up operation. *)
let spin_up () =
  let t0 = now_s () in
  match Acs_util.Parallel.map_array (fun x -> x + 1) (Array.init (4 * nproc ()) Fun.id) with
  | _ -> Some (now_s () -. t0)
  | exception e ->
      op (phase "setup") ~what:("pool spin-up raised " ^ Printexc.to_string e) false;
      None

(* --- the result line --- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_result ~provenance ~aliases metrics =
  let attempted, failed = totals () in
  let correct = failed = 0 && attempted > 0 in
  print_endline ("provenance: " ^ Json.to_string (Json.obj provenance));
  List.iter
    (fun p ->
      Printf.printf "phase %-10s attempted %d succeeded %d failed %d\n" p.phase p.attempted
        (p.attempted - p.failed) p.failed)
    !phases;
  List.iter
    (fun x ->
      let alias = match List.assoc_opt x.name aliases with Some a -> " = " ^ a | None -> "" in
      Printf.printf "%-32s %14.6g %s%s\n" x.name x.value x.unit_ alias)
    metrics;
  let metric x =
    (* JSON has no literal for nan/infinity; a metric that could not be
       measured makes the run fail rather than print an invalid number. *)
    let v = if Float.is_finite x.value then x.value else 0. in
    (x.name, Json.obj [ ("value", Json.float v); ("unit", Json.string x.unit_) ])
  in
  let all_finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        Printf.eprintf "perfbench: metric %s is not finite\n%!" x.name)
    metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct && all_finite));
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]));
  correct && all_finite
