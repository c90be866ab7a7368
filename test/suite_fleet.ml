(* Fleet simulator (Cluster): routing, disaggregated handoff, and the
   invariants that tie fleet accounting back to the per-device simulator. *)

open Core
open Helpers

let model = Model.llama3_8b
let dev = Presets.a100

let small_trace =
  Trace.synthetic ~rate_per_s:4. ~duration_s:10. ~mean_input:256
    ~mean_output:32 ()

(* An overload trace: more offered work than a couple of groups serve in
   the window, so routing decisions and queueing actually matter. *)
let heavy_trace =
  Trace.synthetic ~rate_per_s:20. ~duration_s:8. ~mean_input:256
    ~mean_output:32 ()

let unified ?(routing = Fleet.Least_loaded) ?(count = 2) () =
  Fleet.make ~routing [ Fleet.pool ~count dev ]

let disagg ?(routing = Fleet.Least_loaded) () =
  Fleet.make ~routing
    [
      Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
      Fleet.pool ~role:Fleet.Decode ~count:2 dev;
    ]

let sum_groups fs f =
  List.fold_left
    (fun acc ps -> Array.fold_left (fun acc s -> acc + f s) acc ps.Fleet.per_group)
    0 fs.Fleet.pools

(* Every fleet run must conserve requests and tokens against its own
   per-group stats, and no group may overcommit its HBM. *)
let check_fleet_invariants ~trace fs =
  let n_trace = List.length trace in
  Alcotest.(check int)
    "every request completes or is rejected" n_trace
    (List.length fs.Fleet.outcomes + List.length fs.Fleet.rejected);
  Alcotest.(check int)
    "produced tokens = sum of per-group produced"
    (sum_groups fs (fun s -> s.Simulator.produced_tokens))
    fs.Fleet.produced_tokens;
  Alcotest.(check int)
    "completed = sum of per-pool completed"
    (List.fold_left (fun acc ps -> acc + ps.Fleet.pool_completed) 0 fs.Fleet.pools)
    (sum_groups fs (fun s -> List.length s.Simulator.outcomes));
  List.iter
    (fun ps ->
      Array.iter
        (fun s ->
          if s.Simulator.peak_hbm_bytes > s.Simulator.hbm_capacity_bytes then
            Alcotest.failf "group in %s overcommitted HBM: %.3g > %.3g"
              ps.Fleet.pool_name s.Simulator.peak_hbm_bytes
              s.Simulator.hbm_capacity_bytes;
          check_between
            (ps.Fleet.pool_name ^ " utilization")
            0. 1.000001 ps.Fleet.utilization)
        ps.Fleet.per_group)
    fs.Fleet.pools;
  (* Each original request id appears exactly once across outcomes and
     rejects. *)
  let seen = Hashtbl.create n_trace in
  List.iter
    (fun (o : Simulator.request_outcome) ->
      Hashtbl.replace seen o.Simulator.request.Trace.id ())
    fs.Fleet.outcomes;
  List.iter (fun (r : Trace.request) -> Hashtbl.replace seen r.Trace.id ()) fs.Fleet.rejected;
  Alcotest.(check int) "no request lost or duplicated" n_trace (Hashtbl.length seen)

let t_single_group_identity () =
  (* The acceptance bar: a 1-group unified fleet is the bare simulator,
     bit for bit - same outcomes, same clocks, same peaks. *)
  let fs = Fleet.run (unified ~count:1 ()) model small_trace in
  let solo = Simulator.run dev model small_trace in
  match fs.Fleet.pools with
  | [ ps ] ->
      Alcotest.(check int) "one group" 1 (Array.length ps.Fleet.per_group);
      Alcotest.(check bool)
        "1-group fleet stats = Simulator.run stats" true
        (ps.Fleet.per_group.(0) = solo);
      Alcotest.(check int)
        "fleet outcome count matches" (List.length solo.Simulator.outcomes)
        (List.length fs.Fleet.outcomes);
      check_close "fleet generated = solo generated"
        (float_of_int solo.Simulator.generated_tokens)
        (float_of_int fs.Fleet.generated_tokens)
  | _ -> Alcotest.fail "expected exactly one pool"

let t_unified_conservation () =
  let fs = Fleet.run (unified ()) model heavy_trace in
  check_fleet_invariants ~trace:heavy_trace fs;
  (* Unified fleets complete everything that fits, and generated tokens
     split exactly across groups. *)
  Alcotest.(check int)
    "generated = sum of per-group generated"
    (sum_groups fs (fun s -> s.Simulator.generated_tokens))
    fs.Fleet.generated_tokens

let t_heterogeneous_conservation () =
  let slow =
    { dev with
      Device.name = "slow-a100";
      memory = Memory.make ~capacity_gb:80. ~bandwidth_tb_s:1. }
  in
  let fleet =
    Fleet.make ~routing:Fleet.Phase_affine
      [ Fleet.pool ~count:1 dev; Fleet.pool ~count:2 slow ]
  in
  let fs = Fleet.run fleet model heavy_trace in
  check_fleet_invariants ~trace:heavy_trace fs;
  Alcotest.(check int) "three groups" 3 fs.Fleet.groups;
  (* Phase-affine routing must still use every group under overload. *)
  List.iter
    (fun ps ->
      if ps.Fleet.pool_completed + ps.Fleet.pool_rejected = 0 then
        Alcotest.failf "pool %s never routed to" ps.Fleet.pool_name)
    fs.Fleet.pools

let t_round_robin_balances () =
  let fs = Fleet.run (unified ~routing:Fleet.Round_robin ()) model heavy_trace in
  match fs.Fleet.pools with
  | [ ps ] ->
      let counts =
        Array.map
          (fun s ->
            List.length s.Simulator.outcomes + List.length s.Simulator.rejected)
          ps.Fleet.per_group
      in
      let diff = abs (counts.(0) - counts.(1)) in
      if diff > 1 then
        Alcotest.failf "round-robin split %d/%d" counts.(0) counts.(1)
  | _ -> Alcotest.fail "expected one pool"

let t_disaggregated_conservation () =
  let fs = Fleet.run (disagg ()) model heavy_trace in
  check_fleet_invariants ~trace:heavy_trace fs;
  (* Every completed multi-token request shipped its KV exactly once. *)
  let multi =
    List.length
      (List.filter
         (fun (o : Simulator.request_outcome) ->
           o.Simulator.request.Trace.output_len > 1)
         fs.Fleet.outcomes)
  in
  if fs.Fleet.handoff_transfers < multi then
    Alcotest.failf "%d completions but only %d handoffs" multi
      fs.Fleet.handoff_transfers;
  Alcotest.(check bool) "handoff bytes accumulated" true (fs.Fleet.handoff_bytes > 0.);
  Alcotest.(check bool) "handoff delay positive" true (fs.Fleet.mean_handoff_s > 0.);
  (* Token conservation across the split: prefill contributes one token
     per handed-off request, decode the rest, so the per-group sum equals
     the unified count (no decode-side rejects here - the pools share one
     device type). *)
  Alcotest.(check int)
    "produced = generated across the handoff" fs.Fleet.generated_tokens
    fs.Fleet.produced_tokens;
  (* The merged outcome timeline is causally ordered: first token before
     finish, decode finish after the prefill-side handoff. *)
  List.iter
    (fun (o : Simulator.request_outcome) ->
      if o.Simulator.ttft_s <= 0. then Alcotest.fail "non-positive ttft";
      if o.Simulator.finish_s < o.Simulator.request.Trace.arrival_s then
        Alcotest.fail "finished before arrival";
      if o.Simulator.request.Trace.output_len > 1 && o.Simulator.tbt_s <= 0.
      then Alcotest.fail "multi-token request with non-positive tbt")
    fs.Fleet.outcomes

let t_disagg_slower_ttft_than_idle_decode () =
  (* The decode pool adds transfer delay to the token stream, never to
     TTFT: first tokens come off the prefill side. With an idle prefill
     pool, disaggregated p50 TTFT should be close to (and not wildly above)
     a unified fleet of the same prefill silicon. *)
  let light =
    Trace.synthetic ~rate_per_s:1. ~duration_s:10. ~mean_input:256
      ~mean_output:16 ()
  in
  let fs_u = Fleet.run (unified ~count:1 ()) model light in
  let fs_d = Fleet.run (disagg ()) model light in
  check_between "disagg p50 ttft vs unified" (0.5 *. fs_u.Fleet.p50_ttft_s)
    (2. *. fs_u.Fleet.p50_ttft_s) fs_d.Fleet.p50_ttft_s

let t_fleet_validation () =
  check_raises_invalid "no pools" (fun () -> ignore (Fleet.make []));
  check_raises_invalid "bad count" (fun () ->
      ignore (Fleet.pool ~count:0 dev));
  check_raises_invalid "duplicate names" (fun () ->
      ignore (Fleet.make [ Fleet.pool ~count:1 dev; Fleet.pool ~count:2 dev ]));
  check_raises_invalid "prefill without decode" (fun () ->
      ignore (Fleet.make [ Fleet.pool ~role:Fleet.Prefill ~count:1 dev ]));
  check_raises_invalid "unified mixed with prefill/decode" (fun () ->
      ignore
        (Fleet.make
           [
             Fleet.pool ~name:"u" ~count:1 dev;
             Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
             Fleet.pool ~role:Fleet.Decode ~count:1 dev;
           ]));
  check_raises_invalid "non-positive handoff bandwidth" (fun () ->
      ignore (Fleet.make ~handoff_gb_s:0. [ Fleet.pool ~count:1 dev ]));
  check_raises_invalid "empty trace" (fun () ->
      ignore (Fleet.run (unified ()) model []));
  check_raises_invalid "duplicate request ids" (fun () ->
      let r = { Trace.id = 1; arrival_s = 0.; input_len = 64; output_len = 8 } in
      ignore (Fleet.run (unified ()) model [ r; r ]))

let t_devices_for_qps () =
  let fs = Fleet.run (unified ()) model heavy_trace in
  check_raises_invalid "non-positive target" (fun () ->
      ignore (Fleet.devices_for_qps fs ~target_qps:0.));
  let achieved = fs.Fleet.requests_per_s in
  Alcotest.(check bool) "fleet achieved a rate" true (achieved > 0.);
  (* Sizing for the achieved rate can only shrink the fleet (utilization
     <= 1); doubling the target is monotone. *)
  let at_achieved = Fleet.devices_for_qps fs ~target_qps:achieved in
  List.iter2
    (fun (p : Fleet.pool) (name, n) ->
      Alcotest.(check string) "plan order follows pools" p.Fleet.name name;
      check_between "groups at achieved rate" 1. (float_of_int p.Fleet.count)
        (float_of_int n))
    (unified ()).Fleet.pools at_achieved;
  let doubled = Fleet.devices_for_qps fs ~target_qps:(2. *. achieved) in
  List.iter2
    (fun (_, n1) (_, n2) ->
      if n2 < n1 then Alcotest.failf "doubling the target shrank the fleet")
    at_achieved doubled

let t_cost_per_mtok () =
  let fleet = unified () in
  let fs = Fleet.run fleet model heavy_trace in
  let unwrap what = function
    | Some c -> c
    | None -> Alcotest.failf "%s: expected Some cost" what
  in
  let cost =
    unwrap "measured fleet"
      (Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 1000.) fleet fs)
  in
  Alcotest.(check bool) "cost positive and finite" true
    (cost > 0. && Float.is_finite cost);
  (* Double the die price, double the rate. *)
  let cost2 =
    unwrap "doubled die price"
      (Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 2000.) fleet fs)
  in
  check_close "cost scales with die price" (2. *. cost) cost2;
  (* Regression: a fleet that sustained nothing has no per-token cost -
     the old API returned [infinity] here (and NaN for a zero-cost
     fleet), which leaked straight into comparisons and tables. *)
  let dead = { fs with Fleet.throughput_tokens_per_s = 0. } in
  (match Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 1000.) fleet dead with
  | None -> ()
  | Some c -> Alcotest.failf "zero-throughput fleet costed at %g/Mtok" c);
  (match
     Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 1000.) fleet
       { fs with Fleet.throughput_tokens_per_s = infinity }
   with
  | None -> ()
  | Some c -> Alcotest.failf "non-finite throughput costed at %g/Mtok" c)

let t_fleet_slo () =
  let fs = Fleet.run (unified ()) model small_trace in
  let a = Fleet.slo_attainment fs ~ttft_s:1e9 ~tbt_s:1e9 in
  check_close "loose objectives met" 1. a;
  let z = Fleet.slo_attainment fs ~ttft_s:1e-12 ~tbt_s:1e-12 in
  check_close "impossible objectives missed" 0. z;
  check_raises_invalid "bad objective" (fun () ->
      ignore (Fleet.slo_attainment fs ~ttft_s:0. ~tbt_s:1.))

(* Property: over random fleet shapes, routings and traces, the
   conservation and KV-safety invariants hold - including across the
   disaggregated handoff. *)
let t_fleet_properties =
  let gen =
    QCheck.make
      ~print:(fun (count, routing, disagg, seed) ->
        Printf.sprintf "count=%d routing=%d disagg=%b seed=%d" count routing
          disagg seed)
      QCheck.Gen.(
        quad (int_range 1 3) (int_range 0 2) bool (int_range 0 1000))
  in
  qcheck ~count:10 "fleet invariants hold over random fleets" gen
    (fun (count, routing, disaggregated, seed) ->
      let routing =
        match routing with
        | 0 -> Fleet.Round_robin
        | 1 -> Fleet.Least_loaded
        | _ -> Fleet.Phase_affine
      in
      let fleet =
        if disaggregated then
          Fleet.make ~routing
            [
              Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
              Fleet.pool ~role:Fleet.Decode ~count dev;
            ]
        else Fleet.make ~routing [ Fleet.pool ~count dev ]
      in
      let trace =
        Trace.synthetic ~seed ~rate_per_s:6. ~duration_s:5. ~mean_input:128
          ~mean_output:16 ()
      in
      match trace with
      | [] -> true
      | trace ->
          let fs = Fleet.run fleet model trace in
          check_fleet_invariants ~trace fs;
          true)

(* ---- streamed (bounded-memory, domain-parallel) execution ---- *)

(* Totals that both execution modes must agree on. Streamed stats keep no
   outcome lists, so the comparison is over counters, per-group step
   counts and clocks. *)
let totals fs =
  ( fs.Fleet.completed,
    fs.Fleet.rejected_count,
    fs.Fleet.generated_tokens,
    fs.Fleet.produced_tokens,
    fs.Fleet.handoff_transfers,
    fs.Fleet.makespan_s,
    sum_groups fs (fun s -> s.Simulator.prefill_batches),
    sum_groups fs (fun s -> s.Simulator.decode_steps) )

let t_stream_equals_run_round_robin () =
  (* Round-robin routing is epoch-independent, so the streamed engine
     must reproduce the materialized run exactly - unified and across the
     disaggregated handoff, at several epoch sizes including one smaller
     than the trace. *)
  List.iter
    (fun fleet ->
      let fs_run = Fleet.run fleet model heavy_trace in
      List.iter
        (fun epoch ->
          let fs_stream =
            Fleet.run_stream ~epoch fleet model (Trace.of_list heavy_trace)
          in
          Alcotest.(check bool)
            (Printf.sprintf "streamed totals = run totals (epoch %d)" epoch)
            true
            (totals fs_stream = totals fs_run);
          Alcotest.(check (list int))
            "no outcome list retained" []
            (List.map
               (fun (o : Simulator.request_outcome) ->
                 o.Simulator.request.Trace.id)
               fs_stream.Fleet.outcomes))
        [ 1; 7; 512 ])
    [ unified ~routing:Fleet.Round_robin (); disagg ~routing:Fleet.Round_robin () ]

let t_stream_single_group_identity () =
  (* 1-group streamed fleet vs the bare simulator: same counters, steps
     and makespan, with the percentile fields within the online sketch's
     1% relative error of the exact ones. *)
  let solo = Simulator.run dev model small_trace in
  let fs =
    Fleet.run_stream (unified ~count:1 ()) model (Trace.of_list small_trace)
  in
  Alcotest.(check int) "completed" (List.length solo.Simulator.outcomes)
    fs.Fleet.completed;
  Alcotest.(check int) "generated" solo.Simulator.generated_tokens
    fs.Fleet.generated_tokens;
  Alcotest.(check int) "produced" solo.Simulator.produced_tokens
    fs.Fleet.produced_tokens;
  check_close "makespan" solo.Simulator.makespan_s fs.Fleet.makespan_s;
  (* nearest-rank vs interpolated differ by at most one order statistic;
     on these small samples 20% head-room is ample without being vacuous *)
  check_within "p50 ttft" ~tolerance:0.2 solo.Simulator.p50_ttft_s
    fs.Fleet.p50_ttft_s;
  check_within "p50 tbt" ~tolerance:0.2 solo.Simulator.p50_tbt_s
    fs.Fleet.p50_tbt_s

let t_stream_slo_online () =
  let fs_run = Fleet.run (unified ()) model small_trace in
  let exact = Fleet.slo_attainment fs_run ~ttft_s:0.5 ~tbt_s:0.05 in
  let fs =
    Fleet.run_stream ~slo:(0.5, 0.05) (unified ()) model
      (Trace.of_list small_trace)
  in
  (match fs.Fleet.slo_attained with
  | Some a -> check_close "online slo = exact slo" exact a
  | None -> Alcotest.fail "streamed run with ?slo reported no attainment");
  let fs_none = Fleet.run_stream (unified ()) model (Trace.of_list small_trace) in
  Alcotest.(check bool) "no slo requested, none reported" true
    (fs_none.Fleet.slo_attained = None);
  check_raises_invalid "bad slo objective" (fun () ->
      ignore
        (Fleet.run_stream ~slo:(0., 1.) (unified ()) model
           (Trace.of_list small_trace)))

let t_stream_validation () =
  check_raises_invalid "empty stream" (fun () ->
      ignore (Fleet.run_stream (unified ()) model (Trace.of_list [])));
  check_raises_invalid "bad epoch" (fun () ->
      ignore
        (Fleet.run_stream ~epoch:0 (unified ()) model
           (Trace.of_list small_trace)));
  check_raises_invalid "duplicate ids in stream" (fun () ->
      let r = { Trace.id = 1; arrival_s = 0.; input_len = 64; output_len = 8 } in
      ignore (Fleet.run_stream (disagg ()) model (Trace.of_list [ r; r ])))

(* The acceptance bar for the parallel engine: the merged stats are
   bit-identical whether the groups step on 1 domain or 4, over random
   fleet shapes, routings and epoch sizes - streamed and materialized. *)
let t_stream_jobs_identity =
  let gen =
    QCheck.make
      ~print:(fun (count, routing, disagg, epoch, seed) ->
        Printf.sprintf "count=%d routing=%d disagg=%b epoch=%d seed=%d" count
          routing disagg epoch seed)
      QCheck.Gen.(
        tup5 (int_range 1 3) (int_range 0 2) bool (int_range 1 64)
          (int_range 0 1000))
  in
  qcheck ~count:10 "streamed fleet is job-count independent" gen
    (fun (count, routing, disaggregated, epoch, seed) ->
      let routing =
        match routing with
        | 0 -> Fleet.Round_robin
        | 1 -> Fleet.Least_loaded
        | _ -> Fleet.Phase_affine
      in
      let fleet =
        if disaggregated then
          Fleet.make ~routing
            [
              Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
              Fleet.pool ~role:Fleet.Decode ~count dev;
            ]
        else Fleet.make ~routing [ Fleet.pool ~count dev ]
      in
      let trace =
        Trace.synthetic ~seed ~rate_per_s:6. ~duration_s:5. ~mean_input:128
          ~mean_output:16 ()
      in
      match trace with
      | [] -> true
      | trace ->
          let go jobs =
            Parallel.with_jobs jobs (fun () ->
                Fleet.run_stream ~epoch fleet model (Trace.of_list trace))
          in
          let fs1 = go 1 and fs4 = go 4 in
          if fs1 <> fs4 then
            QCheck.Test.fail_reportf
              "1-job and 4-job streamed stats differ: %d/%d completed, %g/%g \
               makespan"
              fs1.Fleet.completed fs4.Fleet.completed fs1.Fleet.makespan_s
              fs4.Fleet.makespan_s;
          (* the materialized run makes the same job-count claim *)
          let run jobs =
            Parallel.with_jobs jobs (fun () -> Fleet.run fleet model trace)
          in
          if run 1 <> run 4 then
            QCheck.Test.fail_report "1-job and 4-job Fleet.run stats differ";
          (* and the streamed run conserves requests like the materialized
             one *)
          Alcotest.(check int) "streamed conservation" (List.length trace)
            (fs1.Fleet.completed + fs1.Fleet.rejected_count);
          true)

let t_devices_for_qps_nonfinite () =
  let fs = Fleet.run (unified ()) model heavy_trace in
  check_raises_invalid "nan target" (fun () ->
      ignore (Fleet.devices_for_qps fs ~target_qps:Float.nan));
  check_raises_invalid "infinite target" (fun () ->
      ignore (Fleet.devices_for_qps fs ~target_qps:infinity))

(* ---- golden: Fleet.run pinned across fleets, routers and loads ----

   Every scalar of [fleet_stats] as an exact hex float, plus an MD5 of
   the outcome list, the reject list and every pool's per-group stats,
   for 5 fleet shapes x 3 routers x 4 seeded traces. Any change to
   routing, the KV handoff, the drain or the aggregation moves a bit
   here. On drift the test writes the fresh table next to the failure
   message; copy it over test/golden/fleet_run.csv only when the change
   is intentional. *)

let h20 =
  match Database.find "H20" with
  | Some g -> Gpu.to_template g
  | None -> Alcotest.fail "H20 missing from the device database"

let golden_fleets =
  [
    ("unified-x1", fun routing -> Fleet.make ~routing [ Fleet.pool ~count:1 dev ]);
    ("unified-x3", fun routing -> Fleet.make ~routing [ Fleet.pool ~count:3 dev ]);
    ( "hetero-a100+h20",
      fun routing ->
        Fleet.make ~routing [ Fleet.pool ~count:1 dev; Fleet.pool ~count:2 h20 ] );
    ( "disagg-1p2d",
      fun routing ->
        Fleet.make ~routing
          [
            Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
            Fleet.pool ~role:Fleet.Decode ~count:2 dev;
          ] );
    ( "disagg-2p-h20+a100d",
      fun routing ->
        Fleet.make ~routing
          [
            Fleet.pool ~role:Fleet.Prefill ~count:2 dev;
            Fleet.pool ~role:Fleet.Decode ~count:1 h20;
            Fleet.pool ~role:Fleet.Decode ~count:1 dev;
          ] );
  ]

let golden_routings = [ Fleet.Round_robin; Fleet.Least_loaded; Fleet.Phase_affine ]

let golden_traces =
  List.mapi
    (fun i rate ->
      ( Printf.sprintf "seed%d-%grps" (i + 1) rate,
        Trace.synthetic ~seed:(i + 1) ~rate_per_s:rate ~duration_s:8.
          ~mean_input:256 ~mean_output:32 () ))
    [ 4.; 12.; 24.; 40. ]

let digest_lists fs =
  let b = Buffer.create 4096 in
  let fl x = Printf.bprintf b "%h;" x and int n = Printf.bprintf b "%d;" n in
  let req (r : Trace.request) =
    int r.Trace.id;
    fl r.Trace.arrival_s;
    int r.Trace.input_len;
    int r.Trace.output_len
  in
  let outcome (o : Simulator.request_outcome) =
    req o.Simulator.request;
    List.iter fl [ o.Simulator.ttft_s; o.Simulator.tbt_s; o.Simulator.finish_s ]
  in
  let group (s : Simulator.stats) =
    List.iter outcome s.Simulator.outcomes;
    Buffer.add_char b '|';
    List.iter req s.Simulator.rejected;
    Buffer.add_char b '|';
    List.iter fl
      Simulator.
        [ s.makespan_s; s.throughput_tokens_per_s; s.mean_batch_occupancy;
          s.busy_s; s.p50_ttft_s; s.p95_ttft_s; s.p50_tbt_s; s.p95_tbt_s;
          s.peak_hbm_bytes; s.hbm_capacity_bytes ];
    List.iter int
      Simulator.
        [ s.generated_tokens; s.produced_tokens; s.kv_limited_batch;
          s.prefill_batches; s.decode_steps ]
  in
  List.iter outcome fs.Fleet.outcomes;
  Buffer.add_string b "\n";
  List.iter req fs.Fleet.rejected;
  List.iter
    (fun ps ->
      Printf.bprintf b "\n%s/%s/%d:" ps.Fleet.pool_name
        (Fleet.role_to_string ps.Fleet.pool_role)
        ps.Fleet.pool_count;
      Array.iter group ps.Fleet.per_group;
      List.iter int
        [ ps.Fleet.pool_completed; ps.Fleet.pool_rejected;
          ps.Fleet.pool_produced_tokens ];
      List.iter fl [ ps.Fleet.utilization; ps.Fleet.occupancy ])
    fs.Fleet.pools;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_header =
  "fleet,routing,trace,completed,rejected_count,slo_attained,groups,\
   makespan_s,serving_span_s,generated_tokens,produced_tokens,\
   throughput_tokens_per_s,requests_per_s,p50_ttft_s,p95_ttft_s,p50_tbt_s,\
   p95_tbt_s,handoff_transfers,handoff_bytes,mean_handoff_s,lists_md5"

let golden_row ~fleet ~routing ~trace fs =
  let f = Printf.sprintf "%h" in
  String.concat ","
    [ fleet; Fleet.routing_to_string routing; trace;
      string_of_int fs.Fleet.completed; string_of_int fs.Fleet.rejected_count;
      (match fs.Fleet.slo_attained with None -> "none" | Some a -> f a);
      string_of_int fs.Fleet.groups; f fs.Fleet.makespan_s;
      f fs.Fleet.serving_span_s; string_of_int fs.Fleet.generated_tokens;
      string_of_int fs.Fleet.produced_tokens;
      f fs.Fleet.throughput_tokens_per_s; f fs.Fleet.requests_per_s;
      f fs.Fleet.p50_ttft_s; f fs.Fleet.p95_ttft_s; f fs.Fleet.p50_tbt_s;
      f fs.Fleet.p95_tbt_s; string_of_int fs.Fleet.handoff_transfers;
      f fs.Fleet.handoff_bytes; f fs.Fleet.mean_handoff_s; digest_lists fs ]

let t_fleet_golden () =
  let rows =
    List.concat_map
      (fun (fleet, make) ->
        List.concat_map
          (fun routing ->
            List.map
              (fun (trace, requests) ->
                golden_row ~fleet ~routing ~trace
                  (Fleet.run (make routing) model requests))
              golden_traces)
          golden_routings)
      golden_fleets
  in
  let actual = String.concat "\n" (golden_header :: rows) ^ "\n" in
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" "fleet_run.csv")
      In_channel.input_all
  in
  if not (String.equal expected actual) then begin
    let fresh = Filename.temp_file "fleet_run" ".csv" in
    Out_channel.with_open_bin fresh (fun oc -> output_string oc actual);
    let exp_rows = String.split_on_char '\n' expected in
    let drifted =
      List.filter (fun r -> not (List.mem r exp_rows)) rows
      |> List.map (fun r ->
             String.concat ","
               (List.filteri (fun i _ -> i < 3) (String.split_on_char ',' r)))
    in
    Alcotest.failf
      "Fleet.run drifted from test/golden/fleet_run.csv on %d row(s), first \
       %s. Fresh table written to %s"
      (List.length drifted)
      (match drifted with [] -> "(header or row order)" | r :: _ -> r)
      fresh
  end

let suite =
  [
    test "1-group fleet = bare simulator" t_single_group_identity;
    test "unified fleet conserves tokens" t_unified_conservation;
    test "heterogeneous fleet conserves tokens" t_heterogeneous_conservation;
    test "round-robin balances requests" t_round_robin_balances;
    test "disaggregated fleet conserves across handoff" t_disaggregated_conservation;
    test "disaggregated ttft tracks prefill side" t_disagg_slower_ttft_than_idle_decode;
    test "fleet validation" t_fleet_validation;
    test "devices for target qps" t_devices_for_qps;
    test "silicon cost per mtok" t_cost_per_mtok;
    test "fleet slo attainment" t_fleet_slo;
    t_fleet_properties;
    test "streamed round-robin = materialized run" t_stream_equals_run_round_robin;
    test "streamed 1-group fleet tracks bare simulator" t_stream_single_group_identity;
    test "streamed slo attainment online" t_stream_slo_online;
    test "streamed validation" t_stream_validation;
    t_stream_jobs_identity;
    test "devices_for_qps rejects non-finite targets" t_devices_for_qps_nonfinite;
    test "Fleet.run matches its golden fixture" t_fleet_golden;
  ]
