module Device = Acs_hardware.Device
module Memory = Acs_hardware.Memory
module Model = Acs_workload.Model
module Request = Acs_workload.Request
module Engine = Acs_perfmodel.Engine
module Stats = Acs_util.Stats
module Span = Acs_util.Trace
module Metrics = Acs_util.Metrics

(* Registry metrics are always on (atomic bumps, far cheaper than the
   engine calls they count); spans and their attribute lists are built
   only when tracing is enabled. *)
let m_prefills = Metrics.counter "serving_prefill_batches_total"
let m_decodes = Metrics.counter "serving_decode_steps_total"
let m_admitted = Metrics.counter "serving_admitted_total"
let m_rejected = Metrics.counter "serving_rejected_total"
let m_occupancy = Metrics.histogram "serving_batch_occupancy"

type policy = Prefill_priority | Decode_fair
type config = { tp : int; max_batch : int; policy : policy; context_bucket : int }

let default_config =
  { tp = 4; max_batch = 64; policy = Prefill_priority; context_bucket = 64 }

let policy_to_string = function
  | Prefill_priority -> "prefill-priority"
  | Decode_fair -> "decode-fair"

exception Infeasible of string

type request_outcome = {
  request : Trace.request;
  ttft_s : float;
  tbt_s : float;
  finish_s : float;
}

type stats = {
  outcomes : request_outcome list;
  rejected : Trace.request list;
  makespan_s : float;
  generated_tokens : int;
  produced_tokens : int;
  throughput_tokens_per_s : float;
  mean_batch_occupancy : float;
  busy_s : float;
  p50_ttft_s : float;
  p95_ttft_s : float;
  p50_tbt_s : float;
  p95_tbt_s : float;
  kv_limited_batch : int;
  prefill_batches : int;
  decode_steps : int;
  peak_hbm_bytes : float;
  hbm_capacity_bytes : float;
}

let kv_bytes_per_token_per_device config (model : Model.t) =
  let kv_heads_per_dev =
    max 1 ((model.Model.n_kv_heads + config.tp - 1) / config.tp)
  in
  let fraction =
    float_of_int kv_heads_per_dev /. float_of_int model.Model.n_kv_heads
  in
  Model.kv_cache_bytes_per_token model
  *. float_of_int model.Model.num_layers
  *. fraction

let weight_bytes_per_device config (model : Model.t) =
  Model.total_params model *. model.Model.bytes_per_param
  /. float_of_int config.tp

let kv_capacity_batch config dev model ~context =
  if context <= 0 then invalid_arg "Simulator.kv_capacity_batch: context";
  let capacity = dev.Device.memory.Memory.capacity_bytes in
  let weights = weight_bytes_per_device config model in
  let per_request =
    kv_bytes_per_token_per_device config model *. float_of_int context
  in
  let free = capacity -. weights in
  if free <= 0. then 0
  else min config.max_batch (int_of_float (free /. per_request))

(* --- step latencies ---

   Every scheduler step is one engine evaluation at the step's (batch,
   length). The stepper flattens the (model, request, tp) context with
   [Engine.compile] and evaluates the device against the flat arrays
   ([simulate_compiled], bit-identical to [simulate] per the compiled
   property suite), then memoizes the whole-model step time keyed on
   (phase, batch, bucketed length): a long trace revisits the same few
   hundred keys, so almost every step is a hashtable hit. The serving
   suite holds whole runs equal to a per-step [Engine.simulate]
   reference stepper.

   A stepper is a value so instances of identical devices can share one:
   the memo inside is keyed purely on (phase, batch, length), which only
   depends on (config, device, model). *)

type stepper = {
  prefill_s : batch:int -> input_len:int -> float;
  decode_s : batch:int -> context:int -> float;
}

let bucketed config len =
  let b = config.context_bucket in
  let len = max 1 len in
  if b <= 1 then len else (len + b - 1) / b * b

let step_request ~prefill ~batch ~len =
  (* output_len 0 puts the decode phase exactly at context [len]; prefill
     reads TTFT so its output length is irrelevant beyond being >= 1. *)
  Request.make ~batch ~input_len:len ~output_len:(if prefill then 1 else 0)

let make_stepper ?calib ~config dev model =
  let of_result ~prefill r =
    if prefill then Engine.model_ttft_s r else Engine.model_tbt_s r
  in
  let memo : (bool * int * int, float) Hashtbl.t = Hashtbl.create 256 in
  let eval ~prefill ~batch ~len =
    let key = (prefill, batch, len) in
    match Hashtbl.find_opt memo key with
    | Some t -> t
    | None ->
        let compiled =
          Engine.compile ~tp:config.tp
            ~request:(step_request ~prefill ~batch ~len)
            model
        in
        let t =
          of_result ~prefill (Engine.simulate_compiled ?calib compiled dev)
        in
        Hashtbl.add memo key t;
        t
  in
  {
    prefill_s =
      (fun ~batch ~input_len ->
        eval ~prefill:true ~batch ~len:(bucketed config input_len));
    decode_s =
      (fun ~batch ~context ->
        eval ~prefill:false ~batch ~len:(bucketed config context));
  }

(* --- the per-device instance ---

   The event-driven scheduler as a steppable value: requests are submitted
   over (simulated) time, [step] runs one scheduler iteration, and [stats]
   snapshots the accounting. [run] below is submit-everything-then-drain;
   {!Cluster} interleaves submission with stepping to route a shared trace
   across many instances. *)

(* Mutable per-request bookkeeping. [prefilled] marks requests whose KV
   arrived from another device (disaggregated handoff): admission reserves
   their KV but runs no prefill batch - they join the decode set directly
   and their first token is the first local decode step. *)
type entry = {
  req : Trace.request;
  prefilled : bool;
  mutable first_token_s : float;  (** nan until the first token *)
  mutable produced : int;
  mutable context : int;
}

module Instance = struct
  (* The waiting queue is FCFS in submission (= arrival) order, stored as
     the classic two-list functional queue so both [submit] and admission
     pops are O(1) amortized even with a million-request backlog. *)
  type t = {
    config : config;
    stepper : stepper;
    capacity : float;
    weights : float;
    kv_tok : float;
    free : float;
    mutable q_front : (Trace.request * bool) list;
    mutable q_back : (Trace.request * bool) list;  (** newest first *)
    mutable active : entry list;
    mutable outcomes : request_outcome list;
    mutable rejected_rev : Trace.request list;
    mutable clock : float;
    mutable busy_weighted : float;
    mutable busy_time : float;
    mutable prefill_batches : int;
    mutable decode_steps : int;
    mutable produced_tokens : int;
    mutable reserved : float;
    mutable peak : float;
    mutable last_was_prefill : bool;
    (* Submission accounting for the final stats. *)
    mutable submitted : int;
    mutable first_arrival : float;
    mutable context_sum : int;
    (* Outstanding-work estimate for router load balancing. *)
    mutable work_tokens : int;
    (* Counters mirroring [outcomes]/[rejected_rev] so bounded-memory
       callers (the streaming fleet) can drop the lists entirely. *)
    mutable completed : int;
    mutable generated : int;
    mutable rejected_n : int;
    (* Finished/rejected requests go to the sinks as they occur, and into
       [outcomes]/[rejected_rev] only while [retain] holds: without it,
       memory stays O(resident batch + queue) no matter how many requests
       pass through. *)
    mutable on_outcome : request_outcome -> unit;
    mutable on_reject : Trace.request -> unit;
    mutable retain : bool;
  }

  let reserve inst (r : Trace.request) =
    inst.kv_tok *. float_of_int (r.Trace.input_len + r.Trace.output_len)

  let create ?calib ?stepper ~config dev model =
    if config.tp < 1 then invalid_arg "Simulator.run: tp must be >= 1";
    if config.max_batch < 1 then
      invalid_arg "Simulator.run: max_batch must be >= 1";
    let capacity = dev.Device.memory.Memory.capacity_bytes in
    let weights = weight_bytes_per_device config model in
    if weights >= capacity then
      raise
        (Infeasible
           (Printf.sprintf
              "%s at tp=%d needs %.1f GiB of weights per device but %s has \
               only %.1f GiB of HBM - no KV cache can fit"
              model.Model.name config.tp
              (weights /. (1024. ** 3.))
              dev.Device.name
              (capacity /. (1024. ** 3.))));
    let stepper =
      match stepper with
      | Some s -> s
      | None -> make_stepper ?calib ~config dev model
    in
    let kv_tok = kv_bytes_per_token_per_device config model in
    {
      config;
      stepper;
      capacity;
      weights;
      kv_tok;
      free = capacity -. weights;
      q_front = [];
      q_back = [];
      active = [];
      outcomes = [];
      rejected_rev = [];
      clock = 0.;
      busy_weighted = 0.;
      busy_time = 0.;
      prefill_batches = 0;
      decode_steps = 0;
      produced_tokens = 0;
      reserved = 0.;
      peak = weights;
      last_was_prefill = false;
      submitted = 0;
      first_arrival = infinity;
      context_sum = 0;
      work_tokens = 0;
      completed = 0;
      generated = 0;
      rejected_n = 0;
      on_outcome = ignore;
      on_reject = ignore;
      retain = true;
    }

  let set_sinks ?(retain = false) ?(on_outcome = ignore) ?(on_reject = ignore)
      inst =
    inst.on_outcome <- on_outcome;
    inst.on_reject <- on_reject;
    inst.retain <- retain

  (* Requests whose KV can never fit even alone would otherwise pin the
     FCFS queue head forever; mark them rejected at submission instead.
     Requests must be submitted in (fleet-wide) arrival order - the queue
     is FCFS by construction. *)
  let submit ?(prefilled = false) inst (r : Trace.request) =
    inst.submitted <- inst.submitted + 1;
    inst.first_arrival <- Float.min inst.first_arrival r.Trace.arrival_s;
    inst.context_sum <-
      inst.context_sum + r.Trace.input_len + (r.Trace.output_len / 2);
    if reserve inst r > inst.free then begin
      inst.rejected_n <- inst.rejected_n + 1;
      inst.on_reject r;
      if inst.retain then inst.rejected_rev <- r :: inst.rejected_rev;
      Metrics.incr m_rejected
    end
    else begin
      (* A prefilled request costs this device only its remaining decode
         tokens; a fresh one also has its whole prompt to process. *)
      inst.work_tokens <-
        inst.work_tokens + r.Trace.output_len
        + (if prefilled then 0 else r.Trace.input_len);
      inst.q_back <- (r, prefilled) :: inst.q_back
    end

  let queue_head inst =
    (match (inst.q_front, inst.q_back) with
    | [], (_ :: _ as back) ->
        inst.q_front <- List.rev back;
        inst.q_back <- []
    | _ -> ());
    match inst.q_front with [] -> None | head :: _ -> Some head

  let queue_pop inst =
    match inst.q_front with
    | head :: rest ->
        inst.q_front <- rest;
        head
    | [] -> assert false (* callers pop only after a successful peek *)

  let now inst = inst.clock
  let idle inst = inst.q_front = [] && inst.q_back = [] && inst.active = []
  let load inst = inst.work_tokens
  let completed_count inst = inst.completed
  let rejected_count inst = inst.rejected_n
  let generated_count inst = inst.generated

  let live_bytes inst =
    inst.weights
    +. inst.kv_tok
       *. float_of_int
            (List.fold_left (fun acc a -> acc + a.context) 0 inst.active)

  let note_peak inst = inst.peak <- Float.max inst.peak (live_bytes inst)

  let finish inst (a : entry) =
    let tokens_after_first = a.req.Trace.output_len - 1 in
    let outcome =
      {
        request = a.req;
        ttft_s = a.first_token_s -. a.req.Trace.arrival_s;
        tbt_s =
          (if tokens_after_first <= 0 then 0.
           else
             (inst.clock -. a.first_token_s) /. float_of_int tokens_after_first);
        finish_s = inst.clock;
      }
    in
    inst.completed <- inst.completed + 1;
    inst.generated <- inst.generated + a.req.Trace.output_len;
    inst.on_outcome outcome;
    if inst.retain then inst.outcomes <- outcome :: inst.outcomes;
    inst.reserved <- inst.reserved -. reserve inst a.req

  (* FCFS admission: walk the queue head while requests have arrived and
     their reservations fit next to everything already resident. The first
     non-fitting (or future) request blocks the rest - no head-of-line
     bypass, so admission order is exactly arrival order. A head request is
     admissible when it has arrived, its reservation fits, and a batch slot
     is open. *)
  let head_admissible inst ~slots =
    slots > 0
    &&
    match queue_head inst with
    | Some (r, _) ->
        r.Trace.arrival_s <= inst.clock
        && inst.reserved +. reserve inst r <= inst.free
    | None -> false

  (* Prefilled requests at the queue head join the decode set instantly:
     their KV is already materialized (the handoff delay was paid as
     arrival time), so admission costs reservation bookkeeping and nothing
     else - no prefill batch, no clock advance. Joins stop at the first
     fresh (or blocked) head, keeping admission strictly FCFS even in a
     mixed queue. *)
  let join_prefilled inst =
    let joined = ref 0 in
    let continue = ref true in
    while !continue do
      let slots = inst.config.max_batch - List.length inst.active in
      match queue_head inst with
      | Some (r, true) when head_admissible inst ~slots ->
          ignore (queue_pop inst);
          inst.reserved <- inst.reserved +. reserve inst r;
          incr joined;
          inst.active <-
            inst.active
            @ [
                {
                  req = r;
                  prefilled = true;
                  first_token_s = Float.nan;
                  produced = 0;
                  context = r.Trace.input_len;
                };
              ]
      | _ -> continue := false
    done;
    if !joined > 0 then begin
      Metrics.incr ~by:!joined m_admitted;
      note_peak inst
    end

  (* Pop the maximal admissible run of fresh requests at the queue head,
     reserving as it goes. Called only once the policy has decided to run
     a prefill batch. *)
  let take_fresh inst =
    let rec take acc n =
      if n <= 0 then List.rev acc
      else
        match queue_head inst with
        | Some (r, false)
          when r.Trace.arrival_s <= inst.clock
               && inst.reserved +. reserve inst r <= inst.free ->
            ignore (queue_pop inst);
            inst.reserved <- inst.reserved +. reserve inst r;
            take (r :: acc) (n - 1)
        | _ -> List.rev acc
    in
    take [] (inst.config.max_batch - List.length inst.active)

  let step inst =
    (* Float hygiene: releases are interleaved with later reservations, so
       [reserved] can drain to a tiny nonzero residue instead of exactly 0.
       Snapping it when the batch empties keeps admission exact there - a
       feasible queue head must always fit into an empty batch. *)
    if inst.active = [] then inst.reserved <- 0.;
    (* Event jump: with nothing resident, advance straight to the next
       arrival instead of spinning. *)
    (match (inst.active, queue_head inst) with
    | [], Some (next, _) when next.Trace.arrival_s > inst.clock ->
        inst.clock <- next.Trace.arrival_s
    | _ -> ());
    join_prefilled inst;
    let slots = inst.config.max_batch - List.length inst.active in
    let can_prefill =
      head_admissible inst ~slots
      && match queue_head inst with Some (_, pre) -> not pre | None -> false
    in
    let can_decode = inst.active <> [] in
    let do_prefill =
      can_prefill
      && ((not can_decode)
         ||
         match inst.config.policy with
         | Prefill_priority -> true
         | Decode_fair -> not inst.last_was_prefill)
    in
    if do_prefill then begin
      inst.last_was_prefill <- true;
      let admitted = take_fresh inst in
      let batch = List.length admitted in
      let input_len =
        List.fold_left (fun acc r -> max acc r.Trace.input_len) 1 admitted
      in
      Metrics.incr m_prefills;
      Metrics.incr ~by:batch m_admitted;
      Metrics.observe m_occupancy (float_of_int batch);
      let t =
        let step () = inst.stepper.prefill_s ~batch ~input_len in
        if not (Span.enabled ()) then step ()
        else
          Span.with_span "serve.prefill"
            ~attrs:
              [ ("admitted", Span.Int batch);
                ("input_len", Span.Int input_len);
                ("kv_free_bytes", Span.Float (inst.free -. inst.reserved)) ]
            step
      in
      inst.clock <- inst.clock +. t;
      inst.busy_weighted <- inst.busy_weighted +. (float_of_int batch *. t);
      inst.busy_time <- inst.busy_time +. t;
      inst.prefill_batches <- inst.prefill_batches + 1;
      inst.produced_tokens <- inst.produced_tokens + batch;
      List.iter
        (fun (r : Trace.request) ->
          inst.work_tokens <-
            inst.work_tokens - r.Trace.input_len - min 1 r.Trace.output_len;
          let entry =
            {
              req = r;
              prefilled = false;
              first_token_s = inst.clock;
              produced = 1;
              context = r.Trace.input_len + 1;
            }
          in
          if r.Trace.output_len <= 1 then finish inst entry
          else inst.active <- inst.active @ [ entry ])
        admitted;
      note_peak inst
    end
    else if can_decode then begin
      inst.last_was_prefill <- false;
      let batch_list = inst.active in
      let batch = List.length batch_list in
      let context =
        List.fold_left (fun acc a -> acc + a.context) 0 batch_list / batch
      in
      Metrics.incr m_decodes;
      Metrics.observe m_occupancy (float_of_int batch);
      let t =
        let step () = inst.stepper.decode_s ~batch ~context in
        if not (Span.enabled ()) then step ()
        else
          Span.with_span "serve.decode"
            ~attrs:
              [ ("batch", Span.Int batch);
                ("context", Span.Int context);
                ("kv_free_bytes", Span.Float (inst.free -. inst.reserved)) ]
            step
      in
      inst.clock <- inst.clock +. t;
      inst.busy_weighted <- inst.busy_weighted +. (float_of_int batch *. t);
      inst.busy_time <- inst.busy_time +. t;
      inst.decode_steps <- inst.decode_steps + 1;
      inst.produced_tokens <- inst.produced_tokens + batch;
      inst.work_tokens <- inst.work_tokens - batch;
      List.iter
        (fun a ->
          a.produced <- a.produced + 1;
          a.context <- a.context + 1;
          if Float.is_nan a.first_token_s then a.first_token_s <- inst.clock)
        batch_list;
      note_peak inst;
      let finished, still_active =
        List.partition
          (fun a -> a.produced >= a.req.Trace.output_len)
          batch_list
      in
      List.iter (finish inst) finished;
      inst.active <- still_active
    end
    else begin
      (* Nothing resident and the queue head has not arrived; unreachable
         given the event jump above, but advance defensively rather than
         spin. *)
      match queue_head inst with
      | Some (next, _) ->
          inst.clock <- Float.max inst.clock next.Trace.arrival_s
      | None -> ()
    end

  let run_until inst horizon =
    while (not (idle inst)) && inst.clock < horizon do
      step inst
    done

  let drain inst =
    while not (idle inst) do
      step inst
    done

  let stats inst =
    let outcomes = List.rev inst.outcomes in
    (* The counter, not the list: with sinks installed the list is empty
       by design; without sinks the two are equal. *)
    let generated_tokens = inst.generated in
    (* Throughput over the span the server was actually serving: the clock
       starts at 0 but the first request may arrive arbitrarily late, and
       that idle lead-in says nothing about the hardware. *)
    let serving_span = inst.clock -. inst.first_arrival in
    let throughput =
      if serving_span > 0. && Float.is_finite serving_span then
        float_of_int generated_tokens /. serving_span
      else 0.
    in
    let ttfts = List.map (fun o -> o.ttft_s) outcomes in
    let ttfts = if ttfts = [] then [ 0. ] else ttfts in
    let tbts =
      List.filter_map
        (fun o -> if o.tbt_s > 0. then Some o.tbt_s else None)
        outcomes
    in
    let tbts = if tbts = [] then [ 0. ] else tbts in
    let mean_context =
      if inst.submitted = 0 then 1
      else
        max 1
          (int_of_float
             (float_of_int inst.context_sum /. float_of_int inst.submitted))
    in
    let kv_limited_batch =
      (* The informational mean-context batch bound, inlined from
         [kv_capacity_batch] against the instance's own free-HBM figure. *)
      let per_request = inst.kv_tok *. float_of_int mean_context in
      if inst.free <= 0. then 0
      else min inst.config.max_batch (int_of_float (inst.free /. per_request))
    in
    {
      outcomes;
      rejected = List.rev inst.rejected_rev;
      makespan_s = inst.clock;
      generated_tokens;
      produced_tokens = inst.produced_tokens;
      throughput_tokens_per_s = throughput;
      mean_batch_occupancy =
        (if inst.busy_time > 0. then inst.busy_weighted /. inst.busy_time
         else 0.);
      busy_s = inst.busy_time;
      p50_ttft_s = Stats.percentile 50. ttfts;
      p95_ttft_s = Stats.percentile 95. ttfts;
      p50_tbt_s = Stats.percentile 50. tbts;
      p95_tbt_s = Stats.percentile 95. tbts;
      kv_limited_batch;
      prefill_batches = inst.prefill_batches;
      decode_steps = inst.decode_steps;
      peak_hbm_bytes = inst.peak;
      hbm_capacity_bytes = inst.capacity;
    }
end

let by_arrival (a : Trace.request) (b : Trace.request) =
  compare a.Trace.arrival_s b.Trace.arrival_s

let run_sim ~config ~calib dev model requests =
  if requests = [] then invalid_arg "Simulator.run: empty trace";
  let inst = Instance.create ?calib ~config dev model in
  List.iter (Instance.submit inst) (List.stable_sort by_arrival requests);
  Instance.drain inst;
  Instance.stats inst

let run ?(config = default_config) ?calib dev model requests =
  if not (Span.enabled ()) then run_sim ~config ~calib dev model requests
  else
    Span.with_span "serve.run"
      ~attrs:
        [ ("requests", Span.Int (List.length requests));
          ("tp", Span.Int config.tp);
          ("max_batch", Span.Int config.max_batch);
          ("policy", Span.Str (policy_to_string config.policy)) ]
      (fun () ->
        let s = run_sim ~config ~calib dev model requests in
        Span.add_attr "generated_tokens" (Span.Int s.generated_tokens);
        Span.add_attr "makespan_s" (Span.Float s.makespan_s);
        s)

let slo_attainment stats ~ttft_s ~tbt_s =
  if ttft_s <= 0. || tbt_s <= 0. then
    invalid_arg "Simulator.slo_attainment: objectives must be positive";
  match stats.outcomes with
  | [] ->
      (* Zero requests, zero violations: report full attainment rather
         than leaking 0/0 = nan into downstream arithmetic. *)
      1.
  | outcomes ->
      let ok o =
        o.ttft_s <= ttft_s
        && (o.request.Trace.output_len <= 1 || o.tbt_s <= tbt_s)
      in
      let met = List.length (List.filter ok outcomes) in
      float_of_int met /. float_of_int (List.length outcomes)

let pp_stats ppf s =
  Format.fprintf ppf
    "%d requests%s, %d tokens in %.1f s (%.0f tok/s); %d prefill batches + \
     %d decode steps; batch occ %.1f (cap %d); peak HBM %.1f/%.1f GiB; TTFT \
     p50/p95 %.0f/%.0f ms; TBT p50/p95 %.1f/%.1f ms"
    (List.length s.outcomes)
    (match List.length s.rejected with
    | 0 -> ""
    | n -> Printf.sprintf " (+%d rejected: KV can never fit)" n)
    s.generated_tokens s.makespan_s s.throughput_tokens_per_s s.prefill_batches
    s.decode_steps s.mean_batch_occupancy s.kv_limited_batch
    (s.peak_hbm_bytes /. (1024. ** 3.))
    (s.hbm_capacity_bytes /. (1024. ** 3.))
    (1e3 *. s.p50_ttft_s) (1e3 *. s.p95_ttft_s) (1e3 *. s.p50_tbt_s)
    (1e3 *. s.p95_tbt_s)
