open Ita_core
module Prng = Ita_util.Prng

type sample = { scenario : string; requirement : string; response_us : int }

type run_stats = {
  samples : sample list;
  busy_us : (string * int) list;
}

(* One pending activation: instance [inst] of [scenario] wants to run
   step [step] (work [remaining] us, possibly already partially done
   when re-queued after preemption). *)
type activation = {
  scenario : int;  (* scenario index *)
  inst : int;
  step : int;
  mutable remaining : int;
}

type running = {
  act : activation;
  mutable dispatched_at : int;
  work : int;  (* service time this dispatch will deliver *)
  gen : int;
}

type resource_state = {
  res : Resource.t;
  high_q : activation Queue.t;
  low_q : activation Queue.t;
  mutable suspended : activation list;  (* preempted Low jobs, LIFO *)
  mutable current : running option;
  mutable gen : int;
  mutable busy : int;
}

type event =
  | Arrival of { scenario : int; inst : int; at_nominal : int }
  | Completion of { resource : int; gen : int }

(* Per-instance bookkeeping for requirement windows. *)
type instance = { arrived : int; mutable step_done : int array }

(* sporadic gaps are stretched by a uniform factor in [1, 1 + slack] *)
let sporadic_slack = 0.1

let run ~seed ~horizon_us (sys : Sysmodel.t) =
  let rng = Prng.create seed in
  let scenarios = Array.of_list sys.Sysmodel.scenarios in
  let resources = Array.of_list sys.Sysmodel.resources in
  let res_index name =
    let found = ref (-1) in
    Array.iteri (fun i (r : Resource.t) -> if r.Resource.name = name then found := i)
      resources;
    assert (!found >= 0);
    !found
  in
  let steps =
    Array.map (fun (s : Scenario.t) -> Array.of_list s.Scenario.steps) scenarios
  in
  let durations =
    Array.map (Array.map (fun st -> Sysmodel.step_duration_us sys st)) steps
  in
  let step_resource =
    Array.map (Array.map (fun st -> res_index (Scenario.step_resource st))) steps
  in
  let rs =
    Array.map
      (fun r ->
        {
          res = r;
          high_q = Queue.create ();
          low_q = Queue.create ();
          suspended = [];
          current = None;
          gen = 0;
          busy = 0;
        })
      resources
  in
  let cal : event Calendar.t = Calendar.create () in
  let instances : (int * int, instance) Hashtbl.t = Hashtbl.create 1024 in
  let samples = ref [] in

  (* --- arrival generation ---------------------------------------- *)
  (* For each scenario, schedule the next arrival lazily: each Arrival
     event re-schedules its successor. *)
  let next_arrival_time si ~nominal =
    let s = scenarios.(si) in
    match s.Scenario.trigger with
    | Eventmodel.Periodic { period; _ } -> (nominal + period, nominal + period)
    | Eventmodel.Periodic_unknown_offset { period } ->
        (nominal + period, nominal + period)
    | Eventmodel.Sporadic { min_separation } ->
        let gap =
          min_separation
          + int_of_float
              (Prng.float rng (sporadic_slack *. float_of_int min_separation))
        in
        (nominal + gap, nominal + gap)
    | Eventmodel.Periodic_jitter { period; jitter } ->
        let nominal' = nominal + period in
        (nominal', nominal' + Prng.int rng (jitter + 1))
    | Eventmodel.Bursty { period; jitter; min_separation = _ } ->
        let nominal' = nominal + period in
        (nominal', nominal' + Prng.int rng (jitter + 1))
  in
  (* bursty streams must still honour the minimal separation *)
  let last_release = Array.make (Array.length scenarios) min_int in
  let clamp_release si release =
    let dmin =
      match scenarios.(si).Scenario.trigger with
      | Eventmodel.Bursty { min_separation; _ } -> min_separation
      | Eventmodel.Periodic _ | Eventmodel.Periodic_unknown_offset _
      | Eventmodel.Sporadic _ | Eventmodel.Periodic_jitter _ ->
          0
    in
    let release =
      if last_release.(si) = min_int then release
      else max release (last_release.(si) + dmin)
    in
    last_release.(si) <- release;
    release
  in
  let first_arrival si =
    let s = scenarios.(si) in
    match s.Scenario.trigger with
    | Eventmodel.Periodic { offset; _ } -> (0, offset)
    | Eventmodel.Periodic_unknown_offset { period } ->
        let o = Prng.int rng (period + 1) in
        (o, o)
    | Eventmodel.Sporadic _ -> (0, 0)
    | Eventmodel.Periodic_jitter { period; jitter } ->
        let o = Prng.int rng (period + 1) in
        (o, o + Prng.int rng (jitter + 1))
    | Eventmodel.Bursty { jitter; _ } -> (0, Prng.int rng (jitter + 1))
  in

  (* --- dispatching ------------------------------------------------ *)
  let preemptible r =
    r.res.Resource.policy = Resource.Priority_preemptive
  in
  (* TDMA: earliest start of service at or after [t], and the finish
     time of [work] started at [t], walking the live windows *)
  let tdma_start ~slot ~cycle t =
    let phase = t mod cycle in
    if phase < slot then t else t + (cycle - phase)
  in
  let tdma_finish ~slot ~cycle t work =
    let rec go t work =
      let t = tdma_start ~slot ~cycle t in
      let avail = slot - (t mod cycle) in
      if work <= avail then t + work
      else go (t - (t mod cycle) + cycle) (work - avail)
    in
    go t work
  in
  let completion_time r now work =
    match r.res.Resource.policy with
    | Resource.Tdma { slot_us; cycle_us } ->
        tdma_finish ~slot:slot_us ~cycle:cycle_us now work
    | Resource.Nondet_nonpreemptive | Resource.Priority_nonpreemptive
    | Resource.Priority_preemptive | Resource.Priority_segmented _ ->
        now + work
  in
  (* segmented links serve at most one frame per dispatch and then
     re-arbitrate *)
  let dispatch_quantum r remaining =
    match (r.res.Resource.policy, r.res.Resource.kind) with
    | Resource.Priority_segmented { frame_bytes }, Resource.Link { kbps } ->
        min remaining (max 1 (Units.us_of_bytes ~bytes:frame_bytes ~kbps))
    | _, _ -> remaining
  in
  let rec dispatch ri now =
    let r = rs.(ri) in
    match r.current with
    | Some running ->
        (* preempt a Low job the moment High work appears *)
        let current_is_low =
          scenarios.(running.act.scenario).Scenario.band = Scenario.Low
        in
        if
          current_is_low && preemptible r
          && not (Queue.is_empty r.high_q)
        then begin
          let done_work = now - running.dispatched_at in
          running.act.remaining <- running.act.remaining - done_work;
          r.busy <- r.busy + done_work;
          assert (running.act.remaining >= 0);
          r.gen <- r.gen + 1 (* invalidate its completion event *);
          r.suspended <- running.act :: r.suspended;
          r.current <- None;
          dispatch ri now
        end
    | None ->
        let next =
          if not (Queue.is_empty r.high_q) then Some (Queue.pop r.high_q)
          else
            match r.suspended with
            | act :: rest ->
                r.suspended <- rest;
                Some act
            | [] ->
                if not (Queue.is_empty r.low_q) then Some (Queue.pop r.low_q)
                else None
        in
        (match next with
        | None -> ()
        | Some act ->
            let work = dispatch_quantum r act.remaining in
            r.gen <- r.gen + 1;
            r.current <- Some { act; dispatched_at = now; work; gen = r.gen };
            Calendar.schedule cal
              ~time:(completion_time r now work)
              (Completion { resource = ri; gen = r.gen }))
  in
  let activate ri act now =
    let r = rs.(ri) in
    let band = scenarios.(act.scenario).Scenario.band in
    (match band with
    | Scenario.High -> Queue.push act r.high_q
    | Scenario.Low -> Queue.push act r.low_q);
    dispatch ri now
  in

  (* --- requirement sampling --------------------------------------- *)
  let record_completion si inst step now =
    let key = (si, inst) in
    let i = Hashtbl.find instances key in
    i.step_done.(step) <- now;
    let s = scenarios.(si) in
    List.iter
      (fun (req : Scenario.requirement) ->
        if req.Scenario.to_step = step then begin
          let start =
            match req.Scenario.from_step with
            | None -> i.arrived
            | Some f -> i.step_done.(f)
          in
          samples :=
            {
              scenario = s.Scenario.name;
              requirement = req.Scenario.req_name;
              response_us = now - start;
            }
            :: !samples
        end)
      s.Scenario.requirements;
    if step = Array.length steps.(si) - 1 then Hashtbl.remove instances key
  in

  (* --- main loop --------------------------------------------------- *)
  Array.iteri
    (fun si _ ->
      let nominal, release = first_arrival si in
      let release = clamp_release si release in
      if release <= horizon_us then
        Calendar.schedule cal ~time:release
          (Arrival { scenario = si; inst = 0; at_nominal = nominal }))
    scenarios;
  let continue = ref true in
  while !continue do
    match Calendar.pop cal with
    | None -> continue := false
    | Some (now, ev) when now > horizon_us ->
        ignore ev;
        continue := false
    | Some (now, Arrival { scenario = si; inst; at_nominal }) ->
        Hashtbl.replace instances (si, inst)
          {
            arrived = now;
            step_done = Array.make (Array.length steps.(si)) (-1);
          };
        let act =
          { scenario = si; inst; step = 0; remaining = durations.(si).(0) }
        in
        activate step_resource.(si).(0) act now;
        (* schedule the next arrival *)
        let nominal', release' = next_arrival_time si ~nominal:at_nominal in
        let release' = clamp_release si release' in
        if release' <= horizon_us then
          Calendar.schedule cal ~time:(max now release')
            (Arrival
               { scenario = si; inst = inst + 1; at_nominal = nominal' })
    | Some (now, Completion { resource = ri; gen }) ->
        let r = rs.(ri) in
        (match r.current with
        | Some running when running.gen = gen && running.work < running.act.remaining
          ->
            (* frame boundary on a segmented link: re-arbitrate *)
            r.busy <- r.busy + running.work;
            running.act.remaining <- running.act.remaining - running.work;
            r.current <- None;
            r.suspended <- running.act :: r.suspended;
            dispatch ri now
        | Some running when running.gen = gen ->
            r.busy <- r.busy + running.work;
            r.current <- None;
            let act = running.act in
            record_completion act.scenario act.inst act.step now;
            let next_step = act.step + 1 in
            if next_step < Array.length steps.(act.scenario) then begin
              let act' =
                {
                  act with
                  step = next_step;
                  remaining = durations.(act.scenario).(next_step);
                }
              in
              activate step_resource.(act.scenario).(next_step) act' now
            end;
            dispatch ri now
        | _ -> () (* stale completion after preemption *))
  done;
  {
    samples = !samples;
    busy_us =
      Array.to_list
        (Array.map (fun r -> (r.res.Resource.name, r.busy)) rs);
  }

let max_response ~runs ~horizon_us sys ~scenario ~requirement =
  let worst = ref 0 in
  for seed = 1 to runs do
    let stats = run ~seed ~horizon_us sys in
    List.iter
      (fun (s : sample) ->
        if s.scenario = scenario && s.requirement = requirement then
          worst := max !worst s.response_us)
      stats.samples
  done;
  !worst
