(* search-adaptive: seeded Adaptive.search runs over the search-widened
   lattice (~1e9 implicit points), all four strategies and two search
   seeds per round, the memo cleared before each search. Bound-rung
   probes outnumber engine evaluations and batches are small, so the
   Adaptive search loop, Space.build and small-batch Parallel dispatch
   dominate. *)

open Core
module H = Harness

let budget = 256

type config = { strategy : Adaptive.strategy; search_seed : int; objective : Optimum.objective }

(* What a search must reproduce on every repeat and at every job count. *)
type summary = {
  best : (Space.params * int64 * int64) option;
  evaluated : int;
  bounded : int;
  rungs : Adaptive.rung list;
}

let summary (o : Adaptive.outcome) =
  {
    best =
      Option.map
        (fun (d : Design.t) ->
          (d.Design.params, Int64.bits_of_float d.Design.ttft_s, Int64.bits_of_float d.Design.tbt_s))
        o.Adaptive.best;
    evaluated = o.Adaptive.evaluated;
    bounded = o.Adaptive.bounded;
    rungs = o.Adaptive.rungs;
  }

let same a b =
  a.evaluated = b.evaluated && a.bounded = b.bounded && a.rungs = b.rungs
  &&
  match (a.best, b.best) with
  | None, None -> true
  | Some (p, t1, t2), Some (q, u1, u2) -> Space.params_equal p q && t1 = u1 && t2 = u2
  | _ -> false

let configs ~seed =
  let rng = Random.State.make [| seed; 0x5ea4 |] in
  let seeds = List.init 2 (fun _ -> Random.State.int rng 1_000_000) in
  List.concat_map
    (fun (_, strategy) ->
      List.map (fun search_seed -> { strategy; search_seed; objective = Optimum.Tbt }) seeds)
    Adaptive.strategies

let setup ~seed =
  let manifest =
    Json.to_string (Scenario.to_json (Option.get (Scenario.find "search-widened")))
  in
  let sc = Scenario.of_json (Json.of_string manifest) in
  (sc, configs ~seed)

let k_search = H.kind "adaptive.search"

let search sc c =
  Eval.clear ();
  H.with_span k_search (fun () ->
      Adaptive.search ~budget ~seed:c.search_seed ~objective:c.objective ~strategy:c.strategy sc)

(* One round, the unit operation: every config once. The strategies'
   costs differ tenfold, so a single search is not one unit of work. *)
let round sc configs refs ph () =
  let t0 = H.now_s () in
  let outcomes = List.map (fun c -> summary (search sc c)) configs in
  let dt = H.now_s () -. t0 in
  List.iter2
    (fun (c, o) r -> H.op ph ~what:(Adaptive.strategy_to_string c.strategy) (same o r))
    (List.combine configs outcomes) refs;
  (float_of_int (List.length configs), [ dt ])

let k_bounds = H.kind "adaptive.bounds"
let k_build = H.kind "space.build"
let k_compile = H.kind "engine.compile"
let k_round1 = H.kind "search.round@1job"
let k_roundn = H.kind "search.round@njobs"

(* Seeded lattice points of the widened space, for the per-call layer
   timings of the bound probe and device construction. *)
let probe_points ~seed n =
  let rng = Random.State.make [| seed; 0x9b0b |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let w = Space.widened in
  List.init n (fun _ ->
      {
        Space.systolic_dim = pick w.Space.systolic_dims;
        lanes = pick w.Space.lanes_per_core;
        l1 = pick w.Space.l1_kb;
        l2 = pick w.Space.l2_mb;
        memory_bw = pick w.Space.memory_bw_tb_s;
        device_bw = pick w.Space.device_bw_gb_s;
        clock_mhz = pick w.Space.clock_mhz;
      })

let run ~seed ~seconds ~traced =
  let sc, configs = setup ~seed in
  (* Untimed warm-up pass: the 1-job references. *)
  let refs = List.map (fun c -> summary (Parallel.with_jobs 1 (fun () -> search sc c))) configs in
  H.run_rounds ~seconds ~traced (round sc configs refs) (fun _ _ ->
    let ph = H.phase "layers" in
    (* Counts of one round; they repeat exactly for a seed. *)
    let evaluated = ref 0 and bounded = ref 0 and pruned = ref 0 and candidates = ref 0 in
    List.iter
      (fun r ->
        evaluated := !evaluated + r.evaluated;
        bounded := !bounded + r.bounded;
        List.iter
          (fun (g : Adaptive.rung) ->
            pruned := !pruned + g.Adaptive.pruned;
            candidates := !candidates + g.Adaptive.candidates)
          r.rungs)
      refs;
    (* A round at 1 job and at the default job count, alternating. *)
    for _ = 1 to 2 do
      H.with_span k_round1 (fun () ->
          Parallel.with_jobs 1 (fun () ->
              List.iter2 (fun c r -> H.op ph ~what:"1-job round" (same (summary (search sc c)) r)) configs refs));
      H.with_span k_roundn (fun () ->
          List.iter2 (fun c r -> H.op ph ~what:"n-job round" (same (summary (search sc c)) r)) configs refs)
    done;
    let points = probe_points ~seed 2000 in
    List.iter
      (fun p ->
        ignore
          (H.with_span k_build (fun () ->
               Space.build ?memory_gb:sc.Scenario.memory_gb ~tpp_target:sc.Scenario.tpp_target p));
        ignore (H.with_span k_bounds (fun () -> Adaptive.bounds sc p)))
      points;
    for _ = 1 to 200 do
      ignore
        (H.with_span k_compile (fun () ->
             Engine.compile ?tp:sc.Scenario.tp ?request:sc.Scenario.request sc.Scenario.model))
    done;
    [ ("adaptive.search_ms", H.mean_us k_search /. 1e3);
      ("adaptive.bounds_us", H.net_us k_bounds);
      ("adaptive.evaluated", float_of_int !evaluated);
      ("adaptive.bounded", float_of_int !bounded);
      ("adaptive.pruned_frac", float_of_int !pruned /. float_of_int (max 1 !candidates));
      ("space.build_us", H.net_us k_build);
      ("engine.compile_us", H.net_us k_compile);
      ("parallel.search_speedup", Int64.to_float k_round1.H.total_ns /. Int64.to_float k_roundn.H.total_ns) ])
