(* daemon-mixed: the shipped `acs daemon` as a subprocess (one worker
   domain per CPU, one evaluation job each, a disk tier in a scratch
   directory pre-seeded during set-up), driven by a closed loop of one
   client connection per CPU that each wait for their job
   (Client.submit_wait). The seeded job mix is mostly resubmitted
   registry scenarios (memo reads after the first, disk reads before)
   plus a share of novel contexts (cold evaluation and disk writes), so
   the wire, Jobq, the memo and the disk tier do the work. *)

open Core
module H = Harness
module Client = Daemon.Client

(* The resubmitted registry scenarios: the two 512-point Fig 6 sweeps,
   whose 1024 points are pre-seeded on disk. The daemon opens the disk
   tier once per job and that open reads every entry, so the tier's size
   sets the cost of a warm job. *)
let registry_pool () = List.map (fun n -> Option.get (Scenario.find n)) [ "fig6-gpt3"; "fig6-llama3" ]

let novel_share = 0.15

(* A novel context: a registry model at a TPP target no registry scenario
   uses, over an 8-point corner of the October 2023 sweep. Small, so the
   disk writes grow the tier slowly. *)
let novel rng =
  let pick2 l =
    let a = List.nth l (Random.State.int rng (List.length l)) in
    let rest = List.filter (fun x -> x <> a) l in
    [ a; List.nth rest (Random.State.int rng (List.length rest)) ]
  in
  let pick1 l = [ List.nth l (Random.State.int rng (List.length l)) ] in
  let o = Space.oct2023 in
  let sweep =
    {
      Space.systolic_dims = pick2 o.Space.systolic_dims;
      lanes_per_core = pick2 o.Space.lanes_per_core;
      l1_kb = pick2 o.Space.l1_kb;
      l2_mb = pick1 o.Space.l2_mb;
      memory_bw_tb_s = pick1 o.Space.memory_bw_tb_s;
      device_bw_gb_s = pick1 o.Space.device_bw_gb_s;
      clock_mhz = o.Space.clock_mhz;
    }
  in
  let model = List.nth Wl_sweep.models (Random.State.int rng (List.length Wl_sweep.models)) in
  let tpp_target = 1500. +. (Float.round (Random.State.float rng 33000.) /. 10.) in
  Scenario.make ~name:"" ~model ~tpp_target (Scenario.Space sweep)

(* Job [i]: whether its context is novel, and its manifest; a function of
   the seed and the index alone, whichever client submits it. *)
let job_spec ~seed pool i =
  let rng = Random.State.make [| seed; 0xd2; i |] in
  let is_novel = Random.State.float rng 1. < novel_share in
  let sc = if is_novel then novel rng else List.nth pool (Random.State.int rng (List.length pool)) in
  (is_novel, Json.to_string (Scenario.to_json sc))

(* Requests this process sent to the daemon. *)
let calls = Atomic.make 0

(* --- the daemon process --- *)

let acs_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "acs_cli.exe")

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []
let scratch : string option ref = ref None

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () =
  at_exit (fun () ->
      List.iter stop !live;
      Option.iter H.rm_rf !scratch)

(* Spawn the daemon on the tier in [dir]; ready once the socket answers
   /healthz. Returns the daemon and the seconds that took. *)
let spawn dir =
  let t0 = H.now_s () in
  let socket = Filename.concat dir "s" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let n = H.nproc () in
  let pid =
    Unix.create_process (acs_exe ())
      [| acs_exe (); "daemon"; "--socket"; socket; "--workers"; string_of_int n; "--jobs"; "1";
         "--queue"; string_of_int (4 * n); "--cache-dir"; Filename.concat dir "cache" |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = t0 +. 30. in
  let rec wait () =
    Atomic.incr calls;
    match Client.health ~socket with
    | { Client.status = 200; _ } -> ()
    | _ | (exception Client.Error _) ->
        if H.now_s () > deadline then failwith "daemon did not answer /healthz within 30 s";
        Unix.sleepf 0.0002;
        wait ()
  in
  wait ();
  (d, H.now_s () -. t0)

(* Pre-seed the disk tier with every point of the resubmitted scenarios,
   evaluated here. *)
let preseed dir pool =
  Eval.clear ();
  List.iter
    (fun sc ->
      let designs = Eval.run sc in
      let points = match sc.Scenario.target with Scenario.Space sw -> Space.enumerate sw | Scenario.Point p -> [ p ] in
      let d = Disk_cache.open_dir ~dir sc in
      List.iter2 (Disk_cache.store d) points designs)
    pool

(* Set-up samples: spawn a daemon on the pre-seeded tier until it answers
   /healthz, then stop it. The pre-seeding itself happens once and is
   reported per layer: creating its 1024 files takes 0.03-0.5 ms a file
   here depending on the host's disk load, a 15x swing that would make
   set-up time measure the host's disk rather than the program. *)
let setup_samples dir n =
  List.init n (fun _ ->
      let d, t = spawn dir in
      stop d;
      t)

(* --- one job --- *)

type outcome = {
  index : int;
  manifest : string;
  latency_ms : float;
  first_event_ms : float;
  response : (Client.response, string) result;
}

let submit d ~seed pool i =
  let _, m = job_spec ~seed pool i in
  Atomic.incr calls;
  let t0 = H.now_s () in
  let first = ref nan in
  let on_event _ = if Float.is_nan !first then first := H.now_s () in
  let response =
    match Client.submit_wait ~socket:d.socket ~on_event (Json.of_string m) with
    | r -> Ok r
    | exception Client.Error e -> Error e
  in
  let t1 = H.now_s () in
  { index = i; manifest = m; latency_ms = (t1 -. t0) *. 1e3; first_event_ms = (!first -. t0) *. 1e3; response }

let k_job = H.kind "daemon.job"

(* The closed loop: one client per CPU, this thread included; each takes
   the next job index and waits for its job to finish. *)
let closed_loop d ~seed pool ~first ~seconds =
  let next = Atomic.make first in
  let deadline = H.now_s () +. seconds in
  let results = ref [] and lock = Mutex.create () in
  let client () =
    while H.now_s () < deadline do
      let i = Atomic.fetch_and_add next 1 in
      let start = H.now_ns () in
      let o = submit d ~seed pool i in
      if i mod 2 = 0 then H.record k_job ~start ~stop:(H.now_ns ());
      Mutex.lock lock;
      results := o :: !results;
      Mutex.unlock lock
    done
  in
  let t0 = H.now_s () in
  let others = List.init (H.nproc () - 1) (fun _ -> Thread.create client ()) in
  client ();
  List.iter Thread.join others;
  (List.sort (fun a b -> compare a.index b.index) !results, H.now_s () -. t0)

(* --- output checks --- *)

let latency_limit_ms = 2000.

type summary = { designs : int; compliant : int; best_ttft : int64 option; best_tbt : int64 option }

let bits = Option.map Int64.bits_of_float

(* What the daemon reports for a manifest, recomputed in this process. *)
let reference =
  let memo = Hashtbl.create 64 in
  fun m ->
    match Hashtbl.find_opt memo m with
    | Some s -> s
    | None ->
        let sc = Scenario.of_json (Json.of_string m) in
        let designs = Eval.run sc in
        let ok = List.filter (fun d -> Scenario.compliant sc d && Design.manufacturable d) designs in
        let best f = match ok with [] -> None | _ -> Some (List.fold_left (fun a d -> Float.min a (f d)) infinity ok) in
        let s =
          {
            designs = List.length designs;
            compliant = List.length ok;
            best_ttft = bits (best (fun d -> d.Design.ttft_s));
            best_tbt = bits (best (fun d -> d.Design.tbt_s));
          }
        in
        Hashtbl.add memo m s;
        s

type job = {
  o : outcome;
  memo : int;
  disk : int;
  cold : int;
  queue_wait_ms : float;
  service_ms : float;
}

let num k j = Json.to_float (Json.member k j)

(* Check one job against the in-process evaluation; [Some job] when it
   succeeded. *)
let check ph (o : outcome) =
  let what = Printf.sprintf "job %d" o.index in
  match o.response with
  | Error e ->
      H.op ph ~what:(what ^ ": " ^ e) false;
      None
  | Ok { Client.status; body } when status <> 200 ->
      H.op ph ~what:(Printf.sprintf "%s: HTTP %d %s" what status (Json.to_string body)) false;
      None
  | Ok { Client.body; _ } -> (
      try
        let res = Json.member "result" body in
        let cache = Json.member "cache" body in
        let got =
          {
            designs = Json.to_int (Json.member "designs" res);
            compliant = Json.to_int (Json.member "compliant" res);
            best_ttft = bits (Json.to_option Json.to_float (Json.member "best_ttft_s" res));
            best_tbt = bits (Json.to_option Json.to_float (Json.member "best_tbt_s" res));
          }
        in
        let j =
          {
            o;
            memo = Json.to_int (Json.member "memo" cache);
            disk = Json.to_int (Json.member "disk" cache);
            cold = Json.to_int (Json.member "cold" cache);
            queue_wait_ms = (num "started_at" body -. num "submitted_at" body) *. 1e3;
            service_ms = num "wall_s" res *. 1e3;
          }
        in
        let ok =
          Json.to_str (Json.member "status" body) = "done"
          && got = reference o.manifest
          && j.memo + j.disk + j.cold = Json.to_int (Json.member "total" body)
        in
        H.op ph ~what ok;
        if ok then Some j else None
      with Json.Error e ->
        H.op ph ~what:(what ^ ": malformed job record: " ^ e) false;
        None)

let refused (o : outcome) =
  match o.response with Ok { Client.status = 429 | 503; _ } -> true | _ -> false

(* --- layer probes on the disk tier, after the loop --- *)

let k_open = H.kind "disk_cache.open_dir"
let k_find = H.kind "disk_cache.find"
let k_store = H.kind "disk_cache.store"
let k_health = H.kind "daemon.healthz"

let entries dir =
  Array.fold_left
    (fun n f -> if Filename.check_suffix f ".json" then n + 1 else n)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

let probe_disk ~seed cache_dir pool =
  let skipped = ref 0 in
  List.iter
    (fun sc ->
      let d = H.with_span k_open (fun () -> Disk_cache.open_dir ~dir:cache_dir sc) in
      skipped := !skipped + (Disk_cache.stats d).Disk_cache.skipped;
      match sc.Scenario.target with
      | Scenario.Space sw ->
          List.iter (fun p -> ignore (H.with_span k_find (fun () -> Disk_cache.find d p))) (Space.enumerate sw)
      | Scenario.Point _ -> ())
    pool;
  (* Fresh records: a novel context evaluated here. *)
  let sc = novel (Random.State.make [| seed; 0xd3 |]) in
  let designs = Eval.run sc in
  let points = match sc.Scenario.target with Scenario.Space sw -> Space.enumerate sw | Scenario.Point p -> [ p ] in
  let d = Disk_cache.open_dir ~dir:cache_dir sc in
  List.iter2 (fun p x -> H.with_span k_store (fun () -> Disk_cache.store d p x)) points designs;
  !skipped

let metric_value name metrics =
  List.find_map
    (fun c ->
      if Json.member "name" c = Json.String name && not (Json.mem "labels" c) then
        Some (Json.to_float (Json.member "value" c))
      else None)
    (Json.to_list (Json.member "counters" metrics))

let run ~seed ~seconds ~traced =
  let pool = registry_pool () in
  let dir = H.scratch_dir "d" in
  scratch := Some dir;
  let cache_dir = Filename.concat dir "cache" in
  let t0 = H.now_s () in
  preseed cache_dir pool;
  let preseed_ms = (H.now_s () -. t0) *. 1e3 in
  let before = setup_samples dir 2 in
  let d, last = spawn dir in
  let seeded_entries = entries cache_dir in
  (* Untimed warm-up: one novel job, then one resubmission. *)
  let warm = H.phase "warmup" in
  let rec first_of kind i = if fst (job_spec ~seed pool i) = kind then i else first_of kind (i + 1) in
  let w1 = first_of true 0 and w2 = first_of false 0 in
  List.iter (fun i -> ignore (check warm (submit d ~seed pool i))) [ w1; w2 ];
  let start = 1 + max w1 w2 in
  H.tracing := traced;
  let outcomes, elapsed = closed_loop d ~seed pool ~first:start ~seconds in
  let rss = H.peak_rss_mb (string_of_int d.pid) in
  let ph = H.phase (if traced then "traced" else "timed") in
  let checked = List.map (fun o -> (o, check ph o)) outcomes in
  let jobs = List.filter_map snd checked in
  (* A failed job misses the latency limit. *)
  let lats =
    List.map
      (fun ((o : outcome), j) -> if j = None then Float.max o.latency_ms latency_limit_ms else o.latency_ms)
      checked
  in
  if not traced then begin
    stop d;
    let after = setup_samples dir 2 in
    [ ("setup_s", H.median ((last :: before) @ after));
      ("throughput_per_s", float_of_int (List.length jobs) /. elapsed);
      ("op_p50_ms", H.quantile lats 0.5);
      ("op_p95_ms", H.quantile lats 0.95);
      ("peak_rss_mb", rss) ]
  end
  else begin
    let sumi f = List.fold_left (fun a j -> a + f j) 0 jobs in
    let memo = sumi (fun j -> j.memo) and disk = sumi (fun j -> j.disk) and cold = sumi (fun j -> j.cold) in
    let med f = H.median (List.map f jobs) in
    let daemon_entries = entries cache_dir - seeded_entries in
    for _ = 1 to 50 do
      let start = H.now_ns () in
      Atomic.incr calls;
      ignore (Client.health ~socket:d.socket);
      H.record k_health ~start ~stop:(H.now_ns ())
    done;
    Atomic.incr calls;
    let m = (Client.metrics ~socket:d.socket).Client.body in
    let hit_rate =
      match (metric_value "dse_cache_hits_total" m, metric_value "dse_cache_lookups_total" m) with
      | Some h, Some l when l > 0. -> h /. l
      | _ -> 0.
    in
    let scanned = entries cache_dir in
    let skipped = probe_disk ~seed cache_dir pool in
    stop d;
    (* Spans were kept for even job indices only; the odd ones ran
       without, so their latency ratio is the tracing overhead. *)
    let lat_by parity = H.median (List.filter_map (fun (o : outcome) -> if o.index mod 2 = parity then Some o.latency_ms else None) outcomes) in
    let frac a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
    [ ("tracing.overhead_frac", (lat_by 0 /. lat_by 1) -. 1.);
      ("daemon.queue_wait_ms", med (fun j -> j.queue_wait_ms));
      ("daemon.service_ms", med (fun j -> j.service_ms));
      ("daemon.first_event_ms", med (fun j -> j.o.first_event_ms));
      ("daemon.unattributed_ms", med (fun j -> j.o.latency_ms -. j.queue_wait_ms -. j.service_ms));
      ("daemon.healthz_rtt_us", H.mean_us k_health);
      ("daemon.refused", float_of_int (List.length (List.filter refused outcomes)));
      ("daemon.warm_hit_rate", frac (memo + disk) cold);
      ("daemon.memo_hits", float_of_int memo);
      ("daemon.disk_hits", float_of_int disk);
      ("daemon.cold_points", float_of_int cold);
      ("daemon.calls", float_of_int (Atomic.get calls));
      ("eval.hit_rate", hit_rate);
      ("disk_cache.preseed_ms", preseed_ms);
      ("disk_cache.open_ms", H.mean_us k_open /. 1e3);
      ("disk_cache.open_entries_scanned", float_of_int scanned);
      ("disk_cache.find_us", H.net_us k_find);
      ("disk_cache.store_us", H.net_us k_store);
      ("disk_cache.hit_rate", frac disk cold);
      ("disk_cache.skipped", float_of_int skipped);
      ("disk_cache.stores", float_of_int daemon_entries) ]
  end
