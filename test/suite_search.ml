(* The domain pool and the parallel, memoized evaluation engine the
   searches run on. *)

open Core
open Helpers

let sweep = Space.oct2022
let model = Model.llama3_8b

(* The parallel pool. *)

let pool_args =
  QCheck.(
    triple (int_range 1 8) (int_range 1 50)
      (list_of_size Gen.(int_range 0 120) small_int))

let prop_parallel_map =
  qcheck "Parallel.map == List.map for any jobs/chunk" pool_args
    (fun (jobs, chunk, xs) ->
      let f x = (x * x) + 1 in
      Parallel.map ~jobs ~chunk f xs = List.map f xs)

let prop_parallel_filter_map =
  qcheck "Parallel.filter_map == List.filter_map" pool_args
    (fun (jobs, chunk, xs) ->
      let f x = if x mod 3 = 0 then None else Some (x - 7) in
      Parallel.filter_map ~jobs ~chunk f xs = List.filter_map f xs)

let t_parallel_arrays () =
  let xs = Array.init 97 Fun.id in
  let keep_even x = if x mod 2 = 0 then Some (-x) else None in
  Alcotest.(check bool) "map_array" true
    (Parallel.map_array ~jobs:4 ~chunk:5 string_of_int xs
    = Array.map string_of_int xs);
  Alcotest.(check bool) "filter_map_array" true
    (Parallel.filter_map_array ~jobs:4 ~chunk:5 keep_even xs
    = Array.of_list (List.filter_map keep_even (Array.to_list xs)))

let prop_map_reduce =
  qcheck "Parallel.map_reduce == sequential fold" pool_args
    (fun (jobs, chunk, xs) ->
      let f x = (x * 2) + 1 in
      Parallel.map_reduce ~jobs ~chunk ~map:f ~combine:( + ) 0 xs
      = List.fold_left (fun acc x -> acc + f x) 0 xs)

let t_map_reduce_order () =
  (* Concatenation is associative but not commutative: the fold must
     combine per-chunk partials in chunk order, whatever domain finished
     first. Also exercises the auto-tuned chunk (no ~chunk). *)
  let xs = Array.init 53 string_of_int in
  let expected = String.concat "" (Array.to_list xs) in
  Alcotest.(check string) "explicit chunk" expected
    (Parallel.map_reduce_array ~jobs:4 ~chunk:5 ~map:Fun.id ~combine:( ^ ) ""
       xs);
  Alcotest.(check string) "auto-tuned chunk" expected
    (Parallel.map_reduce_array ~jobs:4 ~map:Fun.id ~combine:( ^ ) "" xs);
  Alcotest.(check string) "empty input" "seed"
    (Parallel.map_reduce_array ~jobs:4 ~map:Fun.id ~combine:( ^ ) "seed" [||])

let t_parallel_exception () =
  match
    Parallel.map ~jobs:4 ~chunk:1
      (fun x -> if x = 5 then invalid_arg "boom" else x)
      [ 1; 2; 3; 4; 5; 6 ]
  with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "original exception" "boom" msg
  | _ -> Alcotest.fail "expected Invalid_argument"

let t_parallel_jobs_validation () =
  check_raises_invalid "jobs 0" (fun () ->
      ignore (Parallel.map ~jobs:0 Fun.id [ 1 ]));
  check_raises_invalid "with_jobs 0" (fun () ->
      Parallel.with_jobs 0 (fun () -> ()))

(* The evaluation engine: parallel must be bit-identical to sequential,
   and the cache must answer repeats without re-evaluating. *)

let t_sweep_parallel_identical () =
  let run jobs =
    Parallel.with_jobs jobs (fun () ->
        Eval.sweep ~cache:false ~model ~tpp_target:2400. Space.oct2023)
  in
  let seq = run 1 and par = run 4 in
  let ground = Design.evaluate_sweep ~model ~tpp_target:2400. Space.oct2023 in
  Alcotest.(check bool) "4 jobs == 1 job (bit-identical)" true (par = seq);
  Alcotest.(check bool) "engine == Design.evaluate_sweep" true (seq = ground)

let t_eval_cache () =
  Eval.clear ();
  let s0 = Eval.stats () in
  let a = Eval.sweep ~model ~tpp_target:4800. sweep in
  let s1 = Eval.stats () in
  let b = Eval.sweep ~model ~tpp_target:4800. sweep in
  let s2 = Eval.stats () in
  Alcotest.(check bool) "repeat is identical" true (a = b);
  Alcotest.(check int) "cold pass evaluates every point" (Space.size sweep)
    (s1.Eval.evaluations - s0.Eval.evaluations);
  Alcotest.(check int) "warm pass all hits" (Space.size sweep)
    (s2.Eval.hits - s1.Eval.hits);
  Alcotest.(check int) "warm pass evaluates nothing" 0
    (s2.Eval.evaluations - s1.Eval.evaluations);
  (* A different evaluation context must not collide with cached entries. *)
  let c = Eval.sweep ~model ~tpp_target:2400. sweep in
  Alcotest.(check bool) "different target, different designs" true (a <> c)

let suite =
  [
    prop_parallel_map;
    prop_parallel_filter_map;
    prop_map_reduce;
    test "map_reduce combines in chunk order" t_map_reduce_order;
    test "parallel array variants" t_parallel_arrays;
    test "parallel exception propagation" t_parallel_exception;
    test "parallel job-count validation" t_parallel_jobs_validation;
    test "parallel sweep bit-identical to sequential" t_sweep_parallel_identical;
    test "evaluation cache" t_eval_cache;
  ]
