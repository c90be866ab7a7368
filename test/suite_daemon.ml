open Core
open Helpers

(* The evaluation daemon, tested in-process: every test starts a real
   [Daemon.Server] on a fresh Unix-domain socket in a temp directory and
   talks to it through [Daemon.Client] (or raw bytes, for the malformed
   cases). Batch size 1 plus a throttle keeps jobs observable long
   enough to cancel and to fill queues deterministically. *)

module Server = Daemon.Server
module Client = Daemon.Client
module Jobq = Daemon.Jobq
module Http = Daemon.Http

let j_int name j = Json.to_int (Json.member name j)
let j_str name j = Json.to_str (Json.member name j)

(* Distinct scenarios per call site so tests do not warm each other's
   process-wide memo cache by accident: [salt] lands in tpp_target. *)
let scenario ?(name = "") ~salt n =
  let sweep =
    {
      Space.systolic_dims = [ 16 ];
      lanes_per_core = [ 2 ];
      l1_kb = [ 192. ];
      l2_mb = [ 40. ];
      memory_bw_tb_s = [ 2. ];
      device_bw_gb_s = [ 600. ];
      clock_mhz = List.init n (fun i -> 1200. +. float_of_int i);
    }
  in
  Scenario.make ~name ~model:Model.gpt3_175b
    ~tpp_target:(4800. +. float_of_int salt)
    (Scenario.Space sweep)

let with_server ?(workers = 1) ?(queue = 8) ?(batch = 1) ?(throttle_s = 0.)
    ?cache_dir f =
  let dir = Filename.temp_file "acs_daemon" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let t =
    Server.start
      {
        Server.socket;
        workers;
        queue;
        batch;
        throttle_s;
        eval_jobs = Some 1;
        cache_dir;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop ~drain:false t;
      if Sys.file_exists dir then rm_rf dir)
    (fun () -> f t socket)

let wait_for ?(timeout = 30.) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if not (pred ()) then
      if Unix.gettimeofday () -. t0 > timeout then
        Alcotest.failf "timed out waiting for %s" what
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let job_status ~socket id =
  let r = Client.job ~socket id in
  if r.Client.status <> 200 then
    Alcotest.failf "GET /jobs/%d -> %d" id r.Client.status;
  j_str "status" r.Client.body

(* Raw bytes straight onto the socket, for requests the typed client
   cannot produce. *)
let raw ~socket payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      ignore (Unix.write_substring fd payload 0 (String.length payload));
      let r = Http.reader fd in
      let h = Http.read_head r in
      (h.Http.status, Http.read_body r h))

(* --- protocol --- *)

let t_health_and_404 () =
  with_server @@ fun _t socket ->
  let r = Client.health ~socket in
  Alcotest.(check int) "healthz 200" 200 r.Client.status;
  Alcotest.(check string) "ok" "ok" (j_str "status" r.Client.body);
  Alcotest.(check bool) "not draining" false
    (Json.to_bool (Json.member "draining" r.Client.body));
  let r = Client.request ~socket ~meth:"GET" ~target:"/nope" () in
  Alcotest.(check int) "unknown route 404" 404 r.Client.status;
  let r = Client.request ~socket ~meth:"DELETE" ~target:"/metrics" () in
  Alcotest.(check int) "wrong method 405" 405 r.Client.status;
  let r = Client.job ~socket 123 in
  Alcotest.(check int) "unknown job 404" 404 r.Client.status

let t_metrics_endpoint () =
  with_server @@ fun _t socket ->
  let r = Client.metrics ~socket in
  Alcotest.(check int) "metrics 200" 200 r.Client.status;
  (* The payload is the whole registry export: the three standard
     sections must be present. *)
  List.iter
    (fun section ->
      match Json.member section r.Client.body with
      | Json.List _ -> ()
      | other ->
          Alcotest.failf "metrics.%s: expected a list, got %s" section
            (Json.to_string other))
    [ "counters"; "gauges"; "histograms" ]

let t_malformed_requests_survive () =
  with_server @@ fun _t socket ->
  (* Garbage request line. *)
  let status, _ = raw ~socket "NOT-HTTP\r\n\r\n" in
  Alcotest.(check int) "garbage line 400" 400 status;
  (* Well-framed POST with a non-JSON body. *)
  let body = "{this is not json" in
  let status, reply =
    raw ~socket
      (Printf.sprintf "POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
         (String.length body) body)
  in
  Alcotest.(check int) "bad JSON 400" 400 status;
  Alcotest.(check bool) "structured error" true
    (match Json.member "error" (Json.of_string reply) with
    | Json.String _ -> true
    | _ -> false);
  (* Unknown registry name. *)
  let r = Client.submit ~socket (Json.string "no-such-scenario") in
  Alcotest.(check int) "unknown scenario 400" 400 r.Client.status;
  (* Manifest that parses as JSON but not as a scenario. *)
  let r = Client.submit ~socket (Json.obj [ ("model", Json.string "GPT-3 175B") ]) in
  Alcotest.(check int) "bad manifest 400" 400 r.Client.status;
  (* After all of that the daemon still answers. *)
  let r = Client.health ~socket in
  Alcotest.(check int) "server survived" 200 r.Client.status

(* --- job lifecycle --- *)

let t_submit_wait_streams () =
  with_server ~workers:2 @@ fun _t socket ->
  let events = ref [] in
  let r =
    Client.submit_wait ~socket
      ~on_event:(fun ev -> events := ev :: !events)
      (Scenario.to_json (scenario ~salt:1 6))
  in
  Alcotest.(check int) "stream 200" 200 r.Client.status;
  Alcotest.(check string) "finished done" "done" (j_str "status" r.Client.body);
  Alcotest.(check int) "all points" 6 (j_int "progress" r.Client.body);
  let kinds = List.rev_map (j_str "event") !events in
  Alcotest.(check bool) "queued first" true (List.hd kinds = "queued");
  Alcotest.(check bool) "has started" true (List.mem "started" kinds);
  Alcotest.(check bool) "has progress" true (List.mem "progress" kinds);
  Alcotest.(check string) "terminal done" "done"
    (List.nth kinds (List.length kinds - 1));
  (* Progress is monotone in event order. *)
  let last = ref 0 in
  List.iter
    (fun ev ->
      if j_str "event" ev = "progress" then begin
        let p = j_int "progress" ev in
        if p < !last then Alcotest.failf "progress went backwards: %d" p;
        last := p
      end)
    (List.rev !events)

let t_two_concurrent_jobs () =
  with_server ~workers:2 ~throttle_s:0.02 @@ fun t socket ->
  let submit salt =
    let r = Client.submit ~socket (Scenario.to_json (scenario ~salt 4)) in
    Alcotest.(check int) "queued 202" 202 r.Client.status;
    j_int "id" r.Client.body
  in
  let a = submit 2 and b = submit 3 in
  (* With two workers both jobs must be running at once. *)
  wait_for "both jobs running" (fun () ->
      job_status ~socket a = "running" && job_status ~socket b = "running");
  wait_for "both jobs done" (fun () ->
      job_status ~socket a = "done" && job_status ~socket b = "done");
  let r = Client.jobs ~socket in
  Alcotest.(check int) "two jobs listed" 2
    (List.length (Json.to_list (Json.member "jobs" r.Client.body)));
  ignore t

let t_fifo_completion () =
  (* One worker: three jobs must start (and therefore finish) in
     submission order. *)
  with_server ~workers:1 ~throttle_s:0.01 @@ fun _t socket ->
  let ids =
    List.map
      (fun salt ->
        let r = Client.submit ~socket (Scenario.to_json (scenario ~salt 3)) in
        Alcotest.(check int) "queued 202" 202 r.Client.status;
        j_int "id" r.Client.body)
      [ 4; 5; 6 ]
  in
  wait_for "all three done" (fun () ->
      List.for_all (fun id -> job_status ~socket id = "done") ids);
  let finished_at id =
    let r = Client.job ~socket id in
    Json.to_float (Json.member "finished_at" r.Client.body)
  in
  let times = List.map finished_at ids in
  Alcotest.(check bool) "FIFO completion order" true
    (List.sort compare times = times)

let t_queue_full_rejects () =
  (* One worker, capacity 1: the first job runs, the second queues, the
     third must get a structured 429 - not a hang, not a crash. *)
  with_server ~workers:1 ~queue:1 ~throttle_s:0.05 @@ fun t socket ->
  let submit salt = Client.submit ~socket (Scenario.to_json (scenario ~salt 60)) in
  let a = submit 7 in
  Alcotest.(check int) "first queued" 202 a.Client.status;
  wait_for "first job claimed" (fun () ->
      job_status ~socket (j_int "id" a.Client.body) = "running");
  let b = submit 8 in
  Alcotest.(check int) "second queued" 202 b.Client.status;
  let c = submit 9 in
  Alcotest.(check int) "third rejected 429" 429 c.Client.status;
  Alcotest.(check string) "queue full" "queue full" (j_str "error" c.Client.body);
  Alcotest.(check int) "reported depth" 1 (j_int "queue_depth" c.Client.body);
  Alcotest.(check int) "reported capacity" 1
    (j_int "queue_capacity" c.Client.body);
  (* Cancel both jobs so teardown is quick. *)
  List.iter
    (fun (r : Client.response) ->
      ignore (Client.cancel ~socket (j_int "id" r.Client.body)))
    [ a; b ];
  ignore t

let t_cancel_running_job () =
  with_server ~workers:1 ~throttle_s:0.05 @@ fun _t socket ->
  let r = Client.submit ~socket (Scenario.to_json (scenario ~salt:10 200)) in
  let id = j_int "id" r.Client.body in
  wait_for "job running" (fun () -> job_status ~socket id = "running");
  let c = Client.cancel ~socket id in
  Alcotest.(check int) "cancelling 202" 202 c.Client.status;
  Alcotest.(check string) "flagged" "cancelling" (j_str "status" c.Client.body);
  wait_for "job cancelled" (fun () -> job_status ~socket id = "cancelled");
  let r = Client.job ~socket id in
  Alcotest.(check bool) "stopped early" true
    (j_int "progress" r.Client.body < j_int "total" r.Client.body);
  (* Cancelling again is a conflict, not a success. *)
  let c = Client.cancel ~socket id in
  Alcotest.(check int) "already finished 409" 409 c.Client.status

let t_cancel_queued_job () =
  with_server ~workers:1 ~throttle_s:0.05 @@ fun _t socket ->
  let submit salt n = Client.submit ~socket (Scenario.to_json (scenario ~salt n)) in
  let running = submit 11 60 in
  wait_for "first running" (fun () ->
      job_status ~socket (j_int "id" running.Client.body) = "running");
  let queued = submit 12 10 in
  let qid = j_int "id" queued.Client.body in
  let c = Client.cancel ~socket qid in
  Alcotest.(check int) "queued cancel immediate" 200 c.Client.status;
  Alcotest.(check string) "cancelled" "cancelled" (job_status ~socket qid);
  (* The cancelled job never ran a point. *)
  let r = Client.job ~socket qid in
  Alcotest.(check int) "no progress" 0 (j_int "progress" r.Client.body);
  ignore (Client.cancel ~socket (j_int "id" running.Client.body))

(* --- cache warmth --- *)

let t_warm_cache_memo_reuse () =
  (* The acceptance bar: resubmitting an identical scenario to a live
     daemon must come back >= 90% warm. With the process-wide memo tier
     it is exactly 100%. *)
  Eval.clear ();
  with_server ~workers:1 @@ fun _t socket ->
  let manifest = Scenario.to_json (scenario ~salt:13 8) in
  let first = Client.submit_wait ~socket manifest in
  Alcotest.(check string) "first done" "done" (j_str "status" first.Client.body);
  let cache = Json.member "cache" first.Client.body in
  Alcotest.(check int) "first run cold" 8 (j_int "cold" cache);
  let second = Client.submit_wait ~socket manifest in
  Alcotest.(check string) "second done" "done"
    (j_str "status" second.Client.body);
  let rate =
    Json.to_float (Json.member "warm_hit_rate" second.Client.body)
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm hit rate %.2f >= 0.9" rate)
    true (rate >= 0.9);
  Alcotest.(check int) "no cold points" 0
    (j_int "cold" (Json.member "cache" second.Client.body))

let t_warm_cache_disk_promotion () =
  (* Same scenario, two daemon processes (simulated by clearing the memo
     tier between servers over one cache directory): the second run is
     warm from disk. *)
  with_cache_dir @@ fun dir ->
  Eval.clear ();
  let manifest = Scenario.to_json (scenario ~salt:14 6) in
  with_server ~workers:1 ~cache_dir:dir (fun _t socket ->
      let r = Client.submit_wait ~socket manifest in
      Alcotest.(check string) "cold run done" "done"
        (j_str "status" r.Client.body);
      Alcotest.(check int) "all cold" 6
        (j_int "cold" (Json.member "cache" r.Client.body)));
  Eval.clear ();
  with_server ~workers:1 ~cache_dir:dir (fun _t socket ->
      let r = Client.submit_wait ~socket manifest in
      Alcotest.(check string) "warm run done" "done"
        (j_str "status" r.Client.body);
      let cache = Json.member "cache" r.Client.body in
      Alcotest.(check int) "promoted from disk" 6 (j_int "disk" cache);
      Alcotest.(check int) "nothing cold" 0 (j_int "cold" cache);
      check_close "fully warm" 1.
        (Json.to_float (Json.member "warm_hit_rate" r.Client.body)))

(* --- shutdown --- *)

let t_graceful_drain () =
  with_server ~workers:1 ~throttle_s:0.01 @@ fun t socket ->
  let submit salt = Client.submit ~socket (Scenario.to_json (scenario ~salt 5)) in
  let a = j_int "id" (submit 15).Client.body in
  let b = j_int "id" (submit 16).Client.body in
  (* Drain directly (what SIGTERM triggers in the CLI): submissions are
     rejected while queued/running jobs complete. *)
  Jobq.drain (Server.queue t);
  let rejected = submit 17 in
  Alcotest.(check int) "draining 503" 503 rejected.Client.status;
  Server.stop ~drain:true t;
  (* The socket is gone now; the jobs finished rather than being cut. *)
  let job = Option.get (Jobq.find (Server.queue t) a) in
  Alcotest.(check bool) "job a done" true (job.Jobq.status = Jobq.Done);
  let job = Option.get (Jobq.find (Server.queue t) b) in
  Alcotest.(check bool) "job b done" true (job.Jobq.status = Jobq.Done);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

let t_stop_without_drain () =
  with_server ~workers:1 ~throttle_s:0.05 @@ fun t socket ->
  let r = Client.submit ~socket (Scenario.to_json (scenario ~salt:18 200)) in
  let id = j_int "id" r.Client.body in
  wait_for "running" (fun () -> job_status ~socket id = "running");
  Server.stop ~drain:false t;
  let job = Option.get (Jobq.find (Server.queue t) id) in
  Alcotest.(check bool) "cut short" true (job.Jobq.status = Jobq.Cancelled);
  Alcotest.(check bool) "partial progress" true (job.Jobq.progress < job.Jobq.total)

(* --- bounded job table and terminal events --- *)

let t_finished_job_retention () =
  (* One running and one queued job, then more one-off jobs finished
     (cancelled while queued) than the table keeps: the oldest of those
     is forgotten - 404 - while the running and queued jobs stay. *)
  with_server ~workers:1 ~queue:4 ~throttle_s:0.05 @@ fun t socket ->
  let submit salt n =
    let r = Client.submit ~socket (Scenario.to_json (scenario ~salt n)) in
    Alcotest.(check int) "queued 202" 202 r.Client.status;
    j_int "id" r.Client.body
  in
  let running = submit 20 200 in
  wait_for "first running" (fun () -> job_status ~socket running = "running");
  let queued = submit 21 10 in
  let extra = 2 in
  let finished =
    List.init (Jobq.retained_finished + extra) (fun _ ->
        let id = submit 22 1 in
        Alcotest.(check int) "cancelled" 200 (Client.cancel ~socket id).Client.status;
        id)
  in
  List.iteri
    (fun i id ->
      let expect = if i < extra then 404 else 200 in
      Alcotest.(check int)
        (Printf.sprintf "finished job #%d of %d" (i + 1) (List.length finished))
        expect (Client.job ~socket id).Client.status)
    finished;
  (* A finished job's event log is down to its terminal event. *)
  (match Jobq.find (Server.queue t) (List.nth finished extra) with
  | Some j -> Alcotest.(check int) "log shrunk" 1 (List.length j.Jobq.events)
  | None -> Alcotest.fail "retained job not found");
  Alcotest.(check string) "running job kept" "running" (job_status ~socket running);
  Alcotest.(check string) "queued job kept" "queued" (job_status ~socket queued);
  let listed = Json.to_list (Json.member "jobs" (Client.jobs ~socket).Client.body) in
  Alcotest.(check int) "listing bounded" (Jobq.retained_finished + 2)
    (List.length listed);
  List.iter (fun id -> ignore (Client.cancel ~socket id)) [ queued; running ]

let t_one_terminal_event_per_stream () =
  (* Many concurrent streamed jobs: each stream must carry exactly one
     terminal event, as its last event before the summary. *)
  with_server ~workers:2 ~queue:64 @@ fun _t socket ->
  let manifest i = Scenario.to_json (scenario ~salt:(30 + (i mod 3)) 4) in
  let results = Array.make 24 None in
  let threads =
    List.init 4 (fun c ->
        Thread.create
          (fun () ->
            for k = 0 to 5 do
              let i = (6 * c) + k in
              let events = ref [] in
              let r =
                Client.submit_wait ~socket
                  ~on_event:(fun ev -> events := j_str "event" ev :: !events)
                  (manifest i)
              in
              results.(i) <- Some (r, List.rev !events)
            done)
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i -> function
      | None -> Alcotest.failf "stream %d never returned" i
      | Some ((r : Client.response), events) ->
          Alcotest.(check string) "summary: done" "done" (j_str "status" r.Client.body);
          let terminal = function "done" | "failed" | "cancelled" -> true | _ -> false in
          Alcotest.(check int)
            (Printf.sprintf "stream %d: one terminal event" i)
            1 (List.length (List.filter terminal events));
          Alcotest.(check string)
            (Printf.sprintf "stream %d: whole log, queued first" i)
            "queued" (List.hd events);
          Alcotest.(check string)
            (Printf.sprintf "stream %d: terminal event last" i)
            "done" (List.nth events (List.length events - 1)))
    results

(* --- queue unit behaviour (no sockets) --- *)

let t_jobq_bounds () =
  check_raises_invalid "capacity 0" (fun () ->
      ignore (Jobq.create ~capacity:0));
  let q = Jobq.create ~capacity:2 in
  let sc = scenario ~salt:19 2 in
  let ok = function Ok j -> j | Error _ -> Alcotest.fail "submit failed" in
  let a = ok (Jobq.submit q sc) in
  let _b = ok (Jobq.submit q sc) in
  (match Jobq.submit q sc with
  | Error (`Full 2) -> ()
  | Error (`Full d) -> Alcotest.failf "full with depth %d, expected 2" d
  | Error `Draining | Ok _ -> Alcotest.fail "expected `Full");
  Alcotest.(check int) "depth" 2 (Jobq.depth q);
  (* Cancelled-while-queued jobs are skipped by claim. *)
  (match Jobq.cancel q a.Jobq.id with
  | `Cancelled -> ()
  | _ -> Alcotest.fail "expected immediate cancel");
  (match Jobq.claim q with
  | Some j -> Alcotest.(check int) "claim skips cancelled" 2 j.Jobq.id
  | None -> Alcotest.fail "expected a job");
  Jobq.drain q;
  (match Jobq.submit q sc with
  | Error `Draining -> ()
  | _ -> Alcotest.fail "expected `Draining");
  (* Draining and empty: claim returns the worker exit signal. *)
  Alcotest.(check bool) "claim none" true (Jobq.claim q = None)

let suite =
  [
    test "healthz and unknown routes" t_health_and_404;
    test "metrics endpoint" t_metrics_endpoint;
    test "malformed requests get 4xx, server survives"
      t_malformed_requests_survive;
    test "submit --wait streams progress" t_submit_wait_streams;
    test "two jobs run concurrently" t_two_concurrent_jobs;
    test "FIFO completion order" t_fifo_completion;
    test "queue full rejects with 429" t_queue_full_rejects;
    test "cancel a running job" t_cancel_running_job;
    test "cancel a queued job" t_cancel_queued_job;
    test "warm cache: memo reuse >= 90%" t_warm_cache_memo_reuse;
    test "warm cache: disk promotion across restarts"
      t_warm_cache_disk_promotion;
    test "graceful drain finishes queued jobs" t_graceful_drain;
    test "stop without drain cuts running jobs" t_stop_without_drain;
    test "job queue bounds and draining" t_jobq_bounds;
    test "finished jobs beyond the retention bound are dropped"
      t_finished_job_retention;
    test "every stream carries one terminal event" t_one_terminal_event_per_stream;
  ]
