open Core
open Helpers

(* The adaptive-search correctness battery.

   The load-bearing properties: with budget covering the whole sweep,
   every strategy IS the exhaustive oracle (objective bit-for-bit); with
   a tight budget it never exceeds the budget, never returns an
   infeasible design, and its rung/provenance accounting adds up; the
   roofline lower bound the pruning relies on really is a lower bound;
   and the outcome is identical whether the evaluations came cold, from
   the memo cache, or from the disk tier under any job count. *)

let fig6 = Option.get (Scenario.find "fig6-llama3")
let fig6_gpt3 = Option.get (Scenario.find "fig6-gpt3")

let feasible s d = Scenario.compliant s d && Design.manufacturable d

let oracle ?(objective = Optimum.Tbt) s =
  Optimum.best
    ~filters:[ feasible s ]
    objective (Eval.run s)

let obj_bits objective d =
  Int64.bits_of_float (Optimum.objective_value objective d)

let all_strategies = List.map snd Adaptive.strategies

(* --- oracle identity: unbounded budget degenerates to the exhaustive
   optimum, bit for bit --- *)

let t_oracle_identity s () =
  let g = Option.get (oracle s) in
  List.iter
    (fun strategy ->
      let o = Adaptive.search ~budget:(Scenario.size s) ~strategy s in
      let name = Adaptive.strategy_to_string strategy in
      match o.Adaptive.best with
      | None -> Alcotest.failf "%s: no design found at full budget" name
      | Some b ->
          Alcotest.(check int64)
            (name ^ ": objective bits equal the exhaustive optimum")
            (obj_bits Optimum.Tbt g) (obj_bits Optimum.Tbt b);
          Alcotest.(check int)
            (name ^ ": exhaustive fallback evaluates the whole sweep")
            (Scenario.size s) o.Adaptive.evaluated)
    all_strategies

(* --- budgeted accuracy: every strategy lands within 1% of the oracle on
   the paper's own (oracle-computable) space with an eighth of its
   evaluations --- *)

let t_within_one_percent () =
  List.iter
    (fun objective ->
      let g = Option.get (oracle ~objective fig6) in
      let gv = Optimum.objective_value objective g in
      List.iter
        (fun strategy ->
          let o = Adaptive.search ~budget:64 ~objective ~strategy fig6 in
          let name =
            Printf.sprintf "%s under %s"
              (Adaptive.strategy_to_string strategy)
              (match objective with
              | Optimum.Ttft -> "ttft"
              | Optimum.Tbt -> "tbt"
              | Optimum.Ttft_cost -> "ttft-cost"
              | Optimum.Tbt_cost -> "tbt-cost")
          in
          Alcotest.(check bool) (name ^ ": within budget") true
            (o.Adaptive.evaluated <= 64);
          match o.Adaptive.best with
          | None -> Alcotest.failf "%s: found nothing" name
          | Some b ->
              check_within name ~tolerance:0.01 gv
                (Optimum.objective_value objective b))
        all_strategies)
    [ Optimum.Tbt; Optimum.Ttft_cost ]

(* --- invariants under random sub-sweeps and budgets --- *)

let sub_sweep_gen =
  let open QCheck.Gen in
  let axis g =
    oneof
      [
        map (fun a -> [ a ]) g;
        map2 (fun a b -> List.sort_uniq compare [ a; b ]) g g;
      ]
  in
  let* systolic_dims = axis (oneofl [ 8; 16; 32 ]) in
  let* lanes_per_core = axis (oneofl [ 1; 2; 4; 8 ]) in
  let* l1_kb = axis (oneofl [ 192.; 256.; 512. ]) in
  let* l2_mb = axis (oneofl [ 32.; 48.; 64. ]) in
  let* memory_bw_tb_s = axis (oneofl [ 2.; 2.4; 3.2 ]) in
  let* device_bw_gb_s = axis (oneofl [ 500.; 600.; 900. ]) in
  let* clock_mhz = axis (oneofl [ Space.default_clock_mhz; 1100.; 1800. ]) in
  return
    {
      Space.systolic_dims; lanes_per_core; l1_kb; l2_mb; memory_bw_tb_s;
      device_bw_gb_s; clock_mhz;
    }

let search_case_arb =
  QCheck.make
    ~print:(fun (sweep, budget, strategy) ->
      Printf.sprintf "size=%d budget=%d strategy=%s" (Space.size sweep) budget
        (Adaptive.strategy_to_string strategy))
    QCheck.Gen.(
      triple sub_sweep_gen (int_range 1 140)
        (oneofl (List.map snd Adaptive.strategies)))

let prop_invariants =
  qcheck ~count:30 "budget, accounting and feasibility invariants"
    search_case_arb
    (fun (sweep, budget, strategy) ->
      let s =
        Scenario.make ~name:"" ~model:Model.llama3_8b ~tpp_target:4800.
          ~regime:Regime.acr_2022 (Scenario.Space sweep)
      in
      let o = Adaptive.search ~budget ~strategy s in
      let rung_evals =
        List.fold_left
          (fun a (r : Adaptive.rung) -> a + r.Adaptive.evaluated)
          0 o.Adaptive.rungs
      in
      let pv = o.Adaptive.provenance in
      o.Adaptive.evaluated <= budget
      && rung_evals = o.Adaptive.evaluated
      && pv.Adaptive.memory + pv.Adaptive.disk + pv.Adaptive.cold
         = o.Adaptive.evaluated
      && (match o.Adaptive.best with
         | None -> true
         | Some d -> feasible s d)
      &&
      if budget >= Space.size sweep then
        match (oracle s, o.Adaptive.best) with
        | None, None -> true
        | Some g, Some b ->
            obj_bits Optimum.Tbt g = obj_bits Optimum.Tbt b
        | _ -> false
      else true)

(* --- the roofline bound is sound: never above the simulated latency --- *)

let widened_point_gen =
  let open QCheck.Gen in
  let pick l = oneofl l in
  let* systolic_dim = pick Space.widened.Space.systolic_dims in
  let* lanes = pick Space.widened.Space.lanes_per_core in
  let* l1 = pick Space.widened.Space.l1_kb in
  let* l2 = pick Space.widened.Space.l2_mb in
  let* memory_bw = pick Space.widened.Space.memory_bw_tb_s in
  let* device_bw = pick Space.widened.Space.device_bw_gb_s in
  let* clock_mhz = pick Space.widened.Space.clock_mhz in
  return
    { Space.systolic_dim; lanes; l1; l2; memory_bw; device_bw; clock_mhz }

let prop_bound_sound =
  qcheck ~count:40 "roofline bound <= engine latency"
    (QCheck.make
       ~print:(fun p -> Acs_util.Json.to_string (Space.params_to_json p))
       widened_point_gen)
    (fun p ->
      let s = fig6 in
      let ttft_lb, tbt_lb = Adaptive.bounds s p in
      match Eval.points s [ p ] with
      | [ d ] ->
          let slack = 1. +. 1e-9 in
          ttft_lb <= d.Design.ttft_s *. slack
          && tbt_lb <= d.Design.tbt_s *. slack
          && ttft_lb > 0. && tbt_lb > 0.
      | _ -> false)

(* --- provenance: cold vs warm-memory runs, identical outcomes --- *)

let t_provenance () =
  Eval.clear ();
  let run () = Adaptive.search ~budget:40 ~strategy:Adaptive.Zoom fig6 in
  let a = run () in
  Alcotest.(check int) "cold run: everything cold" a.Adaptive.evaluated
    a.Adaptive.provenance.Adaptive.cold;
  Alcotest.(check int) "cold run: nothing from memory" 0
    a.Adaptive.provenance.Adaptive.memory;
  let b = run () in
  Alcotest.(check int) "warm run: everything from memory"
    b.Adaptive.evaluated b.Adaptive.provenance.Adaptive.memory;
  Alcotest.(check int) "same evaluation count" a.Adaptive.evaluated
    b.Adaptive.evaluated;
  Alcotest.(check int64) "same best, bit for bit"
    (obj_bits Optimum.Tbt (Option.get a.Adaptive.best))
    (obj_bits Optimum.Tbt (Option.get b.Adaptive.best));
  Alcotest.(check bool) "same rung trace" true
    (a.Adaptive.rungs = b.Adaptive.rungs)

(* --- the widened lattice: a billion implicit points, a budgeted dent --- *)

let t_widened_space () =
  Alcotest.(check int) "widened lattice size" 1_027_604_480
    (Space.size Space.widened);
  let s = Option.get (Scenario.find "search-widened") in
  let o = Adaptive.search ~budget:64 ~strategy:Adaptive.Halving s in
  Alcotest.(check bool) "implicit >= 1e9" true (o.Adaptive.implicit >= 1e9);
  Alcotest.(check bool) "evaluated within budget" true
    (o.Adaptive.evaluated <= 64);
  Alcotest.(check bool) "pruned accounts for the rest" true
    (o.Adaptive.pruned
    = o.Adaptive.implicit -. float_of_int o.Adaptive.evaluated);
  match o.Adaptive.best with
  | None -> Alcotest.fail "no feasible design found on the widened lattice"
  | Some d ->
      Alcotest.(check bool) "best is feasible" true (feasible s d);
      Alcotest.(check bool) "widened clock axis is exercised" true
        (List.mem d.Design.params.Space.clock_mhz
           Space.widened.Space.clock_mhz)

(* --- argument validation --- *)

let t_validation () =
  let point = Option.get (Scenario.find "a100-proxy") in
  check_raises_invalid "Point target" (fun () ->
      ignore (Adaptive.search ~strategy:Adaptive.Halving point));
  check_raises_invalid "budget 0" (fun () ->
      ignore (Adaptive.search ~budget:0 ~strategy:Adaptive.Halving fig6))

(* --- refine hook: a final fidelity re-ranks the top designs --- *)

let t_refine_hook () =
  (* A refine metric that inverts the objective ordering must flip the
     winner to the worst of the top designs - proving the hook, not the
     engine objective, picks the final answer. *)
  let refine d = -.Optimum.objective_value Optimum.Tbt d in
  let plain = Adaptive.search ~budget:64 ~strategy:Adaptive.Halving fig6 in
  let refined =
    Adaptive.search ~budget:64 ~strategy:Adaptive.Halving ~refine fig6
  in
  let pb = Option.get plain.Adaptive.best
  and rb = Option.get refined.Adaptive.best in
  Alcotest.(check bool) "refine changed the winner" true
    (Optimum.objective_value Optimum.Tbt rb
    > Optimum.objective_value Optimum.Tbt pb);
  match List.rev refined.Adaptive.rungs with
  | last :: _ ->
      Alcotest.(check string) "refine rung recorded" "refine"
        last.Adaptive.fidelity
  | [] -> Alcotest.fail "no rungs"

(* --- the disk tier --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".json")
  |> List.map (Filename.concat dir)

(* Store one point and return the file its record landed in. *)
let store_one dir s p =
  let before = entry_files dir in
  let d = List.hd (Eval.points s [ p ]) in
  Disk_cache.store (Disk_cache.open_dir ~dir s) p d;
  match List.filter (fun f -> not (List.mem f before)) (entry_files dir) with
  | [ f ] -> (d, f)
  | fs -> Alcotest.failf "expected one new record, got %d" (List.length fs)

let check_stats what (hits, stores, skipped) c =
  let st = Disk_cache.stats c in
  Alcotest.(check (list int)) what [ hits; stores; skipped ]
    [ st.Disk_cache.hits; st.Disk_cache.stores; st.Disk_cache.skipped ]

let check_same_design d d' =
  Alcotest.(check int64) "ttft bits" (Int64.bits_of_float d.Design.ttft_s)
    (Int64.bits_of_float d'.Design.ttft_s);
  Alcotest.(check int64) "tbt bits" (Int64.bits_of_float d.Design.tbt_s)
    (Int64.bits_of_float d'.Design.tbt_s);
  Alcotest.(check bool) "whole design structurally equal" true (d = d')

let t_disk_roundtrip () =
  with_cache_dir @@ fun dir ->
  let s = fig6 in
  let p = List.hd (Space.enumerate Space.oct2022) in
  let d = List.hd (Eval.points s [ p ]) in
  let c1 = Disk_cache.open_dir ~dir s in
  Disk_cache.store c1 p d;
  check_stats "one store" (0, 1, 0) c1;
  let c2 = Disk_cache.open_dir ~dir s in
  check_stats "reopen reads nothing" (0, 0, 0) c2;
  match Disk_cache.find c2 p with
  | None -> Alcotest.fail "stored point not found after reopen"
  | Some d' ->
      check_same_design d d';
      check_stats "one hit" (1, 0, 0) c2

let t_disk_context_isolation () =
  with_cache_dir @@ fun dir ->
  let p = List.hd (Space.enumerate Space.oct2022) in
  let _, llama_file = store_one dir fig6 p in
  (* Same directory, different evaluation context: the gpt3 handle must
     not see the llama3 entry... *)
  let c2 = Disk_cache.open_dir ~dir fig6_gpt3 in
  Alcotest.(check bool) "find misses" true (Disk_cache.find c2 p = None);
  check_stats "and skips nothing" (0, 0, 0) c2;
  (* ...even when the llama3 record sits at the gpt3 record's name (a
     file-name collision): the record's own context is checked. *)
  let _, gpt3_file = store_one dir fig6_gpt3 p in
  write_file gpt3_file (read_file llama_file);
  let c3 = Disk_cache.open_dir ~dir fig6_gpt3 in
  Alcotest.(check bool) "foreign record is a miss" true
    (Disk_cache.find c3 p = None);
  check_stats "a healthy foreign record is not skipped" (0, 0, 0) c3

let t_disk_crash_safety () =
  with_cache_dir @@ fun dir ->
  let s = fig6 in
  let p1, p2, p3 =
    match Space.enumerate Space.oct2022 with
    | a :: b :: c :: _ -> (a, b, c)
    | _ -> Alcotest.fail "sweep too small"
  in
  let _, f1 = store_one dir s p1 in
  let _, f2 = store_one dir s p2 in
  let d3, _ = store_one dir s p3 in
  (* A torn write (truncated record) and outright garbage. *)
  let text = read_file f1 in
  write_file f1 (String.sub text 0 (String.length text / 2));
  write_file f2 "{ not json at all";
  let c = Disk_cache.open_dir ~dir s in
  Alcotest.(check bool) "torn record is a miss" true (Disk_cache.find c p1 = None);
  Alcotest.(check bool) "garbage record is a miss" true
    (Disk_cache.find c p2 = None);
  (match Disk_cache.find c p3 with
  | Some d -> check_same_design d3 d
  | None -> Alcotest.fail "healthy record no longer found");
  check_stats "both bad records skipped, no exception" (1, 0, 2) c

let t_disk_version_invalidation () =
  with_cache_dir @@ fun dir ->
  let s = fig6 in
  let p = List.hd (Space.enumerate Space.oct2022) in
  let _, real = store_one dir s p in
  let bumped =
    match Acs_util.Json.of_string (read_file real) with
    | Acs_util.Json.Obj members ->
        Acs_util.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "version" then
                 (k, Acs_util.Json.int (Disk_cache.version + 1))
               else (k, v))
             members)
    | _ -> Alcotest.fail "cache record is not an object"
  in
  write_file real (Acs_util.Json.to_string bumped);
  let c = Disk_cache.open_dir ~dir s in
  Alcotest.(check bool) "future-version entry not used" true
    (Disk_cache.find c p = None);
  check_stats "counted as skipped" (0, 0, 1) c

let t_disk_open_reads_nothing () =
  with_cache_dir @@ fun dir ->
  let p = List.hd (Space.enumerate Space.oct2022) in
  (* A directory full of trouble: another context's healthy records, a
     corrupt one and stray garbage named like an entry. *)
  let _, foreign = store_one dir fig6_gpt3 p in
  ignore (store_one dir fig6_gpt3 (List.nth (Space.enumerate Space.oct2022) 1));
  write_file foreign "{ torn";
  write_file (Filename.concat dir "acs-garbage.json") "not json";
  let c = Disk_cache.open_dir ~dir fig6 in
  check_stats "open reads and skips nothing" (0, 0, 0) c;
  (* A lookup reads only its own point's record, which does not exist. *)
  Alcotest.(check bool) "miss" true (Disk_cache.find c p = None);
  check_stats "still nothing skipped" (0, 0, 0) c

let t_disk_corrupt_entry_healed () =
  with_cache_dir @@ fun dir ->
  let s = fig6 in
  let p = List.hd (Space.enumerate Space.oct2022) in
  let d, f = store_one dir s p in
  write_file f "{\"version\": 1, \"context\": ";
  let c = Disk_cache.open_dir ~dir s in
  Alcotest.(check bool) "corrupt own entry is a miss" true
    (Disk_cache.find c p = None);
  check_stats "counted once" (0, 0, 1) c;
  (* The caller treats the miss as cold: its store replaces the record. *)
  Disk_cache.store c p d;
  let c' = Disk_cache.open_dir ~dir s in
  (match Disk_cache.find c' p with
  | Some d' -> check_same_design d d'
  | None -> Alcotest.fail "cold store did not heal the entry");
  check_stats "healed" (1, 0, 0) c';
  Alcotest.(check int) "one record file" 1 (List.length (entry_files dir))

let t_disk_jobs_identity () =
  with_cache_dir @@ fun dir ->
  let run jobs =
    Eval.clear ();
    Parallel.with_jobs jobs (fun () ->
        Adaptive.search ~budget:48 ~strategy:Adaptive.Halving ~cache_dir:dir
          fig6)
  in
  let a = run 1 in
  (* Cold disk: every evaluation simulated and written through. *)
  Alcotest.(check int) "cold run stores everything" a.Adaptive.evaluated
    (Option.get a.Adaptive.disk).Disk_cache.stores;
  let b = run 4 in
  (* Memory cleared, disk warm: every evaluation answered by the disk
     tier, and the outcome is identical under a different job count. *)
  Alcotest.(check int) "warm run all from disk" b.Adaptive.evaluated
    b.Adaptive.provenance.Adaptive.disk;
  Alcotest.(check int) "same evaluation count" a.Adaptive.evaluated
    b.Adaptive.evaluated;
  Alcotest.(check int64) "same best, bit for bit"
    (obj_bits Optimum.Tbt (Option.get a.Adaptive.best))
    (obj_bits Optimum.Tbt (Option.get b.Adaptive.best));
  Alcotest.(check bool) "same rung trace" true
    (a.Adaptive.rungs = b.Adaptive.rungs)

let suite =
  [
    test "oracle identity on fig6-llama3 (all strategies)"
      (t_oracle_identity fig6);
    test "oracle identity on fig6-gpt3" (fun () ->
        let g = Option.get (oracle fig6_gpt3) in
        let o =
          Adaptive.search
            ~budget:(Scenario.size fig6_gpt3)
            ~strategy:Adaptive.Halving fig6_gpt3
        in
        Alcotest.(check int64) "objective bits"
          (obj_bits Optimum.Tbt g)
          (obj_bits Optimum.Tbt (Option.get o.Adaptive.best)));
    test "within 1% of the oracle at 1/8 budget" t_within_one_percent;
    prop_invariants;
    prop_bound_sound;
    test "provenance: cold then memory-warm, identical outcome" t_provenance;
    test "widened lattice: 1e9 implicit points" t_widened_space;
    test "argument validation" t_validation;
    test "refine hook re-ranks the winner" t_refine_hook;
    test "disk cache round-trip is bitwise" t_disk_roundtrip;
    test "disk cache isolates contexts" t_disk_context_isolation;
    test "disk cache skips corrupt records" t_disk_crash_safety;
    test "disk cache version bump invalidates" t_disk_version_invalidation;
    test "disk-warm run identical under 1 and 4 jobs" t_disk_jobs_identity;
    test "disk cache open reads nothing" t_disk_open_reads_nothing;
    test "disk cache corrupt entry: miss, then healed by a cold store"
      t_disk_corrupt_entry_healed;
  ]
