(* The first parallel maps of a fresh process, checked against the
   sequential result. Metric handles registered on first use were once
   forced by several worker domains at once here, which raised
   [CamlinternalLazy.Undefined] in a sizeable share of process starts -
   so the rule in this directory's dune file runs this executable many
   times, each in a new process. Exits non-zero on any failure. *)

module Parallel = Acs_util.Parallel
module Eval = Acs_dse.Eval
module Scenario = Acs_dse.Scenario
module Space = Acs_dse.Space

let () =
  let xs = Array.init 64 Fun.id in
  if Parallel.map_array ~jobs:4 (fun x -> x * x) xs <> Array.map (fun x -> x * x) xs
  then failwith "parallel map differs from the sequential one";
  let sweep = { Space.oct2022 with Space.systolic_dims = [ 16 ]; lanes_per_core = [ 2 ] } in
  let s =
    Scenario.make ~name:"" ~model:Acs_workload.Model.llama3_8b ~tpp_target:2400.
      (Scenario.Space sweep)
  in
  let par = Parallel.with_jobs 4 (fun () -> Eval.run ~cache:false s) in
  let seq = Parallel.with_jobs 1 (fun () -> Eval.run ~cache:false s) in
  if par <> seq then failwith "parallel sweep differs from the sequential one"
