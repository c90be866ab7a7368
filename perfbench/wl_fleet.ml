(* fleet-stream: Fleet.run_stream over seeded Trace.stream traces with a
   diurnal x bursts rate shape and two tenants (short chat, long prompt),
   on a disaggregated prefill/decode A100 fleet near 80% offered load.
   Trace generation, the Simulator stepper, the handoff heap,
   Stats.Online and per-epoch Parallel dispatch do the work; Eval, the
   disk tier and the daemon do none. *)

open Core
module H = Harness

let model = Model.llama3_8b
let config = { Simulator.default_config with Simulator.tp = 1 }

let fleet () =
  Fleet.make ~routing:Fleet.Round_robin
    [
      Fleet.pool ~role:Fleet.Prefill ~config ~count:1 Presets.a100;
      Fleet.pool ~role:Fleet.Decode ~config ~count:2 Presets.a100;
    ]

let requests_per_trace = 1500
let traces_per_run = 8
(* The prefill queue runs away near 2.3 requests/s on this fleet (one
   prefill batch of long prompts then outlasts the arrivals it must
   absorb); 1.8 is about 80% of that. *)
let rate_per_s = 1.8

let tenants =
  [
    { Trace.share = 0.7; mean_input = 256; mean_output = 128 };
    { Trace.share = 0.3; mean_input = 2048; mean_output = 256 };
  ]

let shape =
  Trace.Compose
    ( Trace.Diurnal { period_s = 60.; trough = 0.5 },
      Trace.Bursts { every_s = 15.; width_s = 3.; factor = 1.5 } )

let stream trace_seed =
  Trace.stream ~seed:trace_seed ~shape ~tenants ~limit:requests_per_trace ~rate_per_s
    ~mean_input:256 ~mean_output:128 ()

(* The trace seeds of one run: the program sees only the streams. *)
let setup ~seed =
  let rng = Random.State.make [| seed; 0xf1ee7 |] in
  let seeds = List.init traces_per_run (fun _ -> Random.State.int rng 1_000_000_000) in
  let f = fleet () in
  (f, seeds)

(* What a run must reproduce at every job count. *)
type summary = {
  completed : int;
  rejected : int;
  generated : int;
  produced : int;
  makespan : int64;
}

let summary (s : Fleet.fleet_stats) =
  {
    completed = s.Fleet.completed;
    rejected = s.Fleet.rejected_count;
    generated = s.Fleet.generated_tokens;
    produced = s.Fleet.produced_tokens;
    makespan = Int64.bits_of_float s.Fleet.makespan_s;
  }

let steps (s : Fleet.fleet_stats) =
  List.fold_left
    (fun acc (p : Fleet.pool_stats) ->
      Array.fold_left
        (fun acc (g : Simulator.stats) -> acc + g.Simulator.prefill_batches + g.Simulator.decode_steps)
        acc p.Fleet.per_group)
    0 s.Fleet.pools

let k_run = H.kind "fleet.run_stream"

let simulate f trace_seed = H.with_span k_run (fun () -> Fleet.run_stream f model (stream trace_seed))

(* Scheduler steps taken in measured rounds, plain and traced. *)
let steps_taken = ref 0

(* One round: every trace once; the operation is one trace's
   simulation and the work its requests. *)
let round f seeds refs ph () =
  let n = ref 0 and lats = ref [] in
  List.iter2
    (fun s r ->
      let t0 = H.now_s () in
      let stats = simulate f s in
      lats := (H.now_s () -. t0) :: !lats;
      n := !n + stats.Fleet.completed + stats.Fleet.rejected_count;
      steps_taken := !steps_taken + steps stats;
      H.op ph ~what:(Printf.sprintf "trace %d" s) (summary stats = r))
    seeds refs;
  (float_of_int !n, !lats)

let k_next = H.kind "trace.next x1024"
let k_add = H.kind "stats_online.add x1024"
let k_stepper_cold = H.kind "simulator.stepper cold"
let k_stepper_warm = H.kind "simulator.stepper warm x1024"
let k_sim_run = H.kind "simulator.run"
let k_run1 = H.kind "fleet.round@1job"
let k_runn = H.kind "fleet.round@njobs"

(* Calls too short for a clock read each are timed in batches of 1024. *)
let batch = 1024

let layers ph f seeds refs =
  let s = stream (List.hd seeds) in
  let arrivals = ref [] and calls = ref 0 in
  let rec drain () =
    let got = ref 0 in
    H.with_span k_next (fun () ->
        while
          !got < batch
          &&
          match Trace.next s with
          | Some r ->
              arrivals := r :: !arrivals;
              true
          | None -> false
        do
          incr got
        done);
    calls := !calls + !got + 1;
    if !got = batch then drain ()
  in
  drain ();
  let next_ns = Int64.to_float k_next.H.total_ns /. float_of_int !calls in
  let arrivals = List.rev !arrivals in
  let samples = Array.of_list (List.map (fun (r : Trace.request) -> float_of_int r.Trace.input_len) arrivals) in
  let o = Stats.Online.create () in
  for _ = 1 to 20 do
    H.with_span k_add (fun () ->
        for i = 0 to batch - 1 do
          Stats.Online.add o samples.(i mod Array.length samples)
        done)
  done;
  (* Step-time oracle: first call per shape compiles and simulates,
     repeats hit its memo. *)
  let stepper = Simulator.make_stepper ~config Presets.a100 model in
  let shapes = Array.init 64 (fun i -> (1 + (i mod 16), 64 * (1 + (i / 16 * 7)))) in
  Array.iter
    (fun (b, len) ->
      ignore (H.with_span k_stepper_cold (fun () -> stepper.Simulator.decode_s ~batch:b ~context:len)))
    shapes;
  for _ = 1 to 20 do
    H.with_span k_stepper_warm (fun () ->
        for i = 0 to batch - 1 do
          let b, len = shapes.(i land 63) in
          ignore (stepper.Simulator.decode_s ~batch:b ~context:len)
        done)
  done;
  (* One device serving the whole trace. *)
  let st = H.with_span k_sim_run (fun () -> Simulator.run ~config Presets.a100 model arrivals) in
  let sim_steps = st.Simulator.prefill_batches + st.Simulator.decode_steps in
  for _ = 1 to 2 do
    H.with_span k_run1 (fun () ->
        Parallel.with_jobs 1 (fun () ->
            List.iter2 (fun s r -> H.op ph ~what:"1-job round" (summary (simulate f s) = r)) seeds refs));
    H.with_span k_runn (fun () ->
        List.iter2 (fun s r -> H.op ph ~what:"n-job round" (summary (simulate f s) = r)) seeds refs)
  done;
  (next_ns, float_of_int sim_steps /. (Int64.to_float k_sim_run.H.total_ns /. 1e9))

let run ~seed ~seconds ~traced =
  let f, seeds = setup ~seed in
  (* Untimed warm-up pass: the 1-job references. *)
  let refs = List.map (fun s -> summary (Parallel.with_jobs 1 (fun () -> simulate f s))) seeds in
  H.run_rounds ~seconds ~traced (round f seeds refs) (fun plain traced ->
      let fleet_steps_per_s = float_of_int !steps_taken /. (plain.H.busy_s +. traced.H.busy_s) in
      let next_ns, sim_steps_per_s = layers (H.phase "layers") f seeds refs in
      let per_call k = H.mean_us k *. 1e3 /. float_of_int batch in
      [ ("trace.next_ns", next_ns);
        ("stats_online.add_ns", per_call k_add);
        ("simulator.stepper_cold_us", H.net_us k_stepper_cold);
        ("simulator.stepper_warm_ns", per_call k_stepper_warm);
        ("simulator.steps_per_s", sim_steps_per_s);
        ("fleet.steps_per_s", fleet_steps_per_s);
        ("parallel.fleet_speedup", Int64.to_float k_run1.H.total_ns /. Int64.to_float k_runn.H.total_ns) ])
