module Scenario = Acs_dse.Scenario
module Json = Acs_util.Json

type status = Queued | Running | Done | Failed of string | Cancelled

let status_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

type result = {
  designs : int;
  compliant : int;
  best_ttft_s : float;
  best_tbt_s : float;
  wall_s : float;
}

type job = {
  id : int;
  scenario : Scenario.t;
  submitted_at : float;
  total : int;
  cancel_requested : bool Atomic.t;
  mutable status : status;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable progress : int;
  mutable memo_hits : int;
  mutable disk_hits : int;
  mutable cold : int;
  mutable result : result option;
  mutable seq : int;
  mutable events : (int * Json.t) list;
  mutable watched : bool;
}

let finished j =
  match j.status with
  | Done | Failed _ | Cancelled -> true
  | Queued | Running -> false

let warm_hit_rate j =
  let looked = j.memo_hits + j.disk_hits + j.cold in
  if looked = 0 then nan
  else float_of_int (j.memo_hits + j.disk_hits) /. float_of_int looked

(* JSON floats must be finite; drop nan-valued optional members. *)
let finite_member name v =
  if Float.is_finite v then [ (name, Json.float v) ] else []

let job_to_json j =
  let base =
    [
      ("id", Json.int j.id);
      ( "scenario",
        Json.string
          (if j.scenario.Scenario.name = "" then "(anonymous)"
           else j.scenario.Scenario.name) );
      ("status", Json.string (status_to_string j.status));
      ( "error",
        match j.status with Failed msg -> Json.string msg | _ -> Json.Null );
      ("total", Json.int j.total);
      ("progress", Json.int j.progress);
      ("submitted_at", Json.float j.submitted_at);
      ("started_at", Json.option Json.float j.started_at);
      ("finished_at", Json.option Json.float j.finished_at);
      ( "cache",
        Json.obj
          [
            ("memo", Json.int j.memo_hits);
            ("disk", Json.int j.disk_hits);
            ("cold", Json.int j.cold);
          ] );
    ]
    @ finite_member "warm_hit_rate" (warm_hit_rate j)
  in
  let result =
    match j.result with
    | None -> []
    | Some r ->
        [
          ( "result",
            Json.obj
              ([
                 ("designs", Json.int r.designs);
                 ("compliant", Json.int r.compliant);
                 ("wall_s", Json.float r.wall_s);
               ]
              @ finite_member "best_ttft_s" r.best_ttft_s
              @ finite_member "best_tbt_s" r.best_tbt_s) );
        ]
  in
  Json.obj (base @ result)

(* --- the queue --- *)

(* Finished jobs kept for listings and lookups; older ones are dropped
   (404 from then on), so a daemon serving jobs for days keeps a bounded
   job table. Queued and running jobs are never dropped. *)
let retained_finished = 256

type t = {
  capacity : int;
  m : Mutex.t;
  changed : Condition.t;  (* any job/queue state change *)
  pending : job Queue.t;  (* queued jobs only, FIFO *)
  by_id : (int, job) Hashtbl.t;  (* every retained job *)
  retired : job Queue.t;  (* retained finished jobs, oldest first *)
  mutable next_id : int;
  mutable draining : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Jobq.create: capacity must be >= 1";
  {
    capacity;
    m = Mutex.create ();
    changed = Condition.create ();
    pending = Queue.create ();
    by_id = Hashtbl.create 64;
    retired = Queue.create ();
    next_id = 1;
    draining = false;
  }

let capacity t = t.capacity

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let depth t = locked t (fun () -> Queue.length t.pending)

(* Event log bound: progress events are advisory (streamers also check
   job status on every wake), so a lagging reader losing old entries is
   fine; terminal events are always the newest. *)
let max_events = 64

let emit_locked t job ev =
  job.seq <- job.seq + 1;
  let ev =
    match ev with
    | Json.Obj members ->
        Json.Obj
          (("seq", Json.int job.seq) :: ("id", Json.int job.id) :: members)
    | other -> other
  in
  job.events <- (job.seq, ev) :: job.events;
  (match job.events with
  | _ :: _ :: _ when List.length job.events > max_events ->
      job.events <- List.filteri (fun i _ -> i < max_events) job.events
  | _ -> ());
  Condition.broadcast t.changed

let emit t job ev = locked t (fun () -> emit_locked t job ev)

(* A finished job's event log shrinks to its terminal event (the newest)
   once the stream that watched it from submission, if any, is done. *)
let shrink_log job =
  if finished job && not job.watched then
    match job.events with
    | terminal :: _ :: _ -> job.events <- [ terminal ]
    | _ -> ()

(* The one way a job becomes finished: status, result, timestamp and the
   terminal event change together under the lock, so a streamer never
   sees a finished job whose terminal event is still to come. The oldest
   finished job beyond [retained_finished] is then forgotten. *)
let finish_locked t job ?result status ev =
  (match status with
  | _ when finished job -> invalid_arg "Jobq.finish: job already finished"
  | Done | Failed _ | Cancelled -> ()
  | Queued | Running -> invalid_arg "Jobq.finish: not a terminal status");
  job.result <- result;
  job.status <- status;
  job.finished_at <- Some (Unix.gettimeofday ());
  emit_locked t job ev;
  shrink_log job;
  Queue.push job t.retired;
  if Queue.length t.retired > retained_finished then
    Hashtbl.remove t.by_id (Queue.pop t.retired).id

let finish t job ?result status ev =
  locked t (fun () -> finish_locked t job ?result status ev)

let submit ?(watch = false) t scenario =
  locked t (fun () ->
      if t.draining then Error `Draining
      else if Queue.length t.pending >= t.capacity then
        Error (`Full (Queue.length t.pending))
      else begin
        let job =
          {
            id = t.next_id;
            scenario;
            submitted_at = Unix.gettimeofday ();
            total = Scenario.size scenario;
            cancel_requested = Atomic.make false;
            status = Queued;
            started_at = None;
            finished_at = None;
            progress = 0;
            memo_hits = 0;
            disk_hits = 0;
            cold = 0;
            result = None;
            seq = 0;
            events = [];
            watched = watch;
          }
        in
        t.next_id <- t.next_id + 1;
        Queue.push job t.pending;
        Hashtbl.replace t.by_id job.id job;
        emit_locked t job
          (Json.obj
             [
               ("event", Json.string "queued");
               ("total", Json.int job.total);
               ("queue_depth", Json.int (Queue.length t.pending));
             ]);
        Ok job
      end)

let claim t =
  locked t (fun () ->
      let rec next () =
        match Queue.take_opt t.pending with
        | Some job ->
            (* Flip to Running under the lock: a cancel arriving between
               the claim and the runner's first instruction must see
               Running (and set the flag) rather than Queued (and mark a
               job Cancelled that is about to run anyway). *)
            job.status <- Running;
            job.started_at <- Some (Unix.gettimeofday ());
            Some job
        | None ->
            if t.draining then None
            else begin
              Condition.wait t.changed t.m;
              next ()
            end
      in
      next ())

let find t id = locked t (fun () -> Hashtbl.find_opt t.by_id id)

let jobs t =
  locked t (fun () ->
      Hashtbl.fold (fun _ j acc -> j :: acc) t.by_id []
      |> List.sort (fun a b -> compare a.id b.id))

let cancel t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_id id with
      | None -> `Unknown
      | Some job -> (
          match job.status with
          | Done | Failed _ | Cancelled -> `Already_finished
          | Queued ->
              (* Out of the pending queue at once: a cancelled job must
                 not hold a queue slot until a worker skips past it. *)
              let keep = Queue.create () in
              Queue.iter (fun j -> if j != job then Queue.push j keep) t.pending;
              Queue.clear t.pending;
              Queue.transfer keep t.pending;
              finish_locked t job Cancelled
                (Json.obj [ ("event", Json.string "cancelled") ]);
              `Cancelled
          | Running ->
              Atomic.set job.cancel_requested true;
              `Cancelling))

let drain t =
  locked t (fun () ->
      t.draining <- true;
      Condition.broadcast t.changed)

let draining t = locked t (fun () -> t.draining)

let events_after t job seq =
  locked t (fun () ->
      let fresh () =
        List.filter (fun (s, _) -> s > seq) job.events |> List.rev
      in
      match fresh () with
      | _ :: _ as evs -> (evs, finished job)
      | [] ->
          if finished job then ([], true)
          else begin
            (* [Condition] has no timed wait, so the bound comes from the
               waker side: every state change broadcasts, and the
               server's accept loop calls {!tick} on each poll interval,
               so a wait never outlives one poll even when a job stalls.
               Callers loop on an empty return. *)
            Condition.wait t.changed t.m;
            (fresh (), finished job)
          end)

let unwatch t job =
  locked t (fun () ->
      job.watched <- false;
      shrink_log job)

let tick t = locked t (fun () -> Condition.broadcast t.changed)
