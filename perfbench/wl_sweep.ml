(* sweep-cold: exhaustive cold [Eval.run] over every enumerable registry
   sweep, half of them replaced per seed by a variant with another TPP
   target and model. The memo is cleared before each scenario and there
   is no disk tier, so the cold design-point chain
   Space.build -> Engine.simulate_compiled -> Design.of_latencies, driven
   by Eval over the Parallel pool, does nearly all the work. *)

open Core
module H = Harness

let models = [ Model.gpt3_175b; Model.llama3_8b; Model.llama2_70b; Model.llama3_70b ]

let registry_sweeps () =
  List.filter
    (fun (s : Scenario.t) ->
      match s.Scenario.target with
      | Scenario.Space sw -> Space.size sw <= 10_000
      | Scenario.Point _ -> false)
    Scenario.registry

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The seeded manifests, as the JSON text the program is given. Every
   seed keeps the same scenario sizes, so the amount of work per round
   does not depend on the seed. *)
let manifests ~seed =
  let rng = Random.State.make [| seed; 0x5ee9 |] in
  let variant (s : Scenario.t) =
    if Random.State.bool rng then s
    else
      let tpp_target = Float.round (s.Scenario.tpp_target *. (0.6 +. Random.State.float rng 1.0)) in
      let model = List.nth models (Random.State.int rng (List.length models)) in
      { s with Scenario.name = s.Scenario.name ^ "-v"; model; tpp_target }
  in
  List.map variant (registry_sweeps ())
  |> shuffle rng
  |> List.map (fun s -> Json.to_string (Scenario.to_json s))

(* Every design's params plus the IEEE bits of its latencies. *)
let digest (designs : Design.t list) =
  let b = Buffer.create (List.length designs * 72) in
  let f x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  List.iter
    (fun (d : Design.t) ->
      let p = d.Design.params in
      Buffer.add_int64_le b (Int64.of_int p.Space.systolic_dim);
      Buffer.add_int64_le b (Int64.of_int p.Space.lanes);
      List.iter f
        [ p.Space.l1; p.Space.l2; p.Space.memory_bw; p.Space.device_bw; p.Space.clock_mhz;
          d.Design.ttft_s; d.Design.tbt_s ])
    designs;
  Digest.string (Buffer.contents b)

let setup ~seed = List.map (fun m -> Scenario.of_json (Json.of_string m)) (manifests ~seed)

let k_run = H.kind "eval.run"
let k_clear = H.kind "eval.clear"

(* Memo counters summed over scenarios ([Eval.clear] resets them). *)
let lookups = ref 0
let hits = ref 0

(* One round: each scenario cold at the default job count; the
   operation is one scenario's Eval.run. *)
let round scenarios refs ph () =
  let points = ref 0 and lats = ref [] in
  List.iter2
    (fun (s : Scenario.t) ref_digest ->
      H.with_span k_clear Eval.clear;
      let t0 = H.now_s () in
      let designs = H.with_span k_run (fun () -> Eval.run s) in
      lats := (H.now_s () -. t0) :: !lats;
      let st = Eval.stats () in
      lookups := !lookups + st.Eval.lookups;
      hits := !hits + st.Eval.hits;
      points := !points + List.length designs;
      H.op ph ~what:s.Scenario.name (Digest.equal (digest designs) ref_digest))
    scenarios refs;
  (float_of_int !points, !lats)

(* The traced decomposition: the same chain Eval runs per point, called
   layer by layer, plus Eval.run itself at 1 job and at the default job
   count on the same scenarios. *)
let k_compile = H.kind "engine.compile"
let k_build = H.kind "space.build"
let k_sim = H.kind "engine.simulate_compiled"
let k_oflat = H.kind "design.of_latencies"
let k_run1 = H.kind "eval.run@1job"
let k_runn = H.kind "eval.run@njobs"

let decompose ph scenarios refs =
  List.iter2
    (fun (s : Scenario.t) ref_digest ->
      let c =
        H.with_span k_compile (fun () ->
            Engine.compile ?tp:s.Scenario.tp ?request:s.Scenario.request s.Scenario.model)
      in
      let sweep = match s.Scenario.target with Scenario.Space sw -> sw | Scenario.Point _ -> assert false in
      let designs =
        List.map
          (fun p ->
            let dev =
              H.with_span k_build (fun () ->
                  Space.build ?memory_gb:s.Scenario.memory_gb ~tpp_target:s.Scenario.tpp_target p)
            in
            let r = H.with_span k_sim (fun () -> Engine.simulate_compiled ?calib:s.Scenario.calib c dev) in
            H.with_span k_oflat (fun () ->
                Design.of_latencies p dev ~ttft_s:r.Engine.ttft_s ~tbt_s:r.Engine.tbt_s))
          (Space.enumerate sweep)
      in
      H.op ph ~what:(s.Scenario.name ^ " layer by layer") (Digest.equal (digest designs) ref_digest);
      Eval.clear ();
      let d1 = H.with_span k_run1 (fun () -> Parallel.with_jobs 1 (fun () -> Eval.run s)) in
      Eval.clear ();
      let dn = H.with_span k_runn (fun () -> Eval.run s) in
      H.op ph ~what:(s.Scenario.name ^ " 1 job vs n jobs")
        (Digest.equal (digest d1) ref_digest && Digest.equal (digest dn) ref_digest))
    scenarios refs

let run ~seed ~seconds ~traced =
  let scenarios = setup ~seed in
  (* Untimed warm-up pass: the 1-job reference digests. *)
  let refs =
    List.map
      (fun s ->
        Eval.clear ();
        digest (Parallel.with_jobs 1 (fun () -> Eval.run s)))
      scenarios
  in
  H.run_rounds ~seconds ~traced (round scenarios refs) (fun _ _ ->
      decompose (H.phase "layers") scenarios refs;
      let point = H.total_us k_run1 /. float_of_int k_build.H.count in
      let chain = H.net_us k_build +. H.net_us k_sim +. H.net_us k_oflat in
      [ ("space.build_us", H.net_us k_build);
      ("engine.simulate_us", H.net_us k_sim);
      ("design.of_latencies_us", H.net_us k_oflat);
      ("eval.point_us", point);
      ("eval.unattributed_us", point -. chain);
      ("engine.compile_us", H.net_us k_compile);
      ("parallel.sweep_speedup", Int64.to_float k_run1.H.total_ns /. Int64.to_float k_runn.H.total_ns);
      ("eval.hit_rate", if !lookups = 0 then 0. else float_of_int !hits /. float_of_int !lookups) ])
