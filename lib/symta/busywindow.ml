open Ita_core

type task = {
  task_name : string;
  group : string;
  step_index : int;
  chain_pending : int;
  prefix_response : int;
  delta_jitter : int;
      (* release bunching of this task's own activations (upstream
         response spread, capped at one period): tightens delta_min in
         the q-activation analysis without touching the eta windows *)
  block_quantum : int;
      (* longest uninterruptible run: the wcet, or one frame on
         segmented links *)
  wcet : int;
  stream : Evstream.t;
  cross_stream : Evstream.t;
  band : Scenario.band;
}

type discipline = Preemptive | Nonpreemptive

type response = { task : task; r_max : int }

exception Unschedulable of string

let lower_band t = t.band = Scenario.Low

(* Tasks that can take the resource from task [i]: higher bands always,
   the same band by queueing. *)
let interferers tasks i =
  List.filter
    (fun t ->
      t != i && (t.band = i.band || (t.band = Scenario.High && lower_band i)))
    tasks

let blocking discipline tasks i =
  match discipline with
  | Preemptive -> 0
  | Nonpreemptive ->
      (* one lower-band job may already occupy the resource; same-band
         jobs are covered by the interference term *)
      List.fold_left
        (fun acc t ->
          if t.band = Scenario.Low && i.band = Scenario.High then
            max acc t.block_quantum
          else acc)
        0 tasks

(* How many executions of rival [t] can delay task [i] within a busy
   window of length [w]: see the interface. *)
let rival_count i t w =
  if t.group = i.group then
    let backlog = t.chain_pending in
    if t.step_index < i.step_index then
      (* the victim's window opens [prefix_response] after the shared
         event's arrival; events arriving since then (excluding the
         shared event itself, whose upstream execution precedes the
         window) cover both the backlog and fresh arrivals *)
      max 0 (Evstream.eta_plus t.stream (w + i.prefix_response) - 1)
    else backlog
  else Evstream.eta_plus t.cross_stream w

let divergence_cutoff = 1 lsl 40

(* Smallest fixpoint of [w = base + interference w] by iteration. *)
let fix ~base ~interference name =
  let rec go w =
    let w' = base + interference w in
    if w' = w then w
    else if w' > divergence_cutoff then
      raise (Unschedulable (name ^ ": busy window diverges"))
    else go w'
  in
  go base

let analyze discipline tasks =
  let analyze_task i =
    let ifs = interferers tasks i in
    let b = blocking discipline tasks i in
    let interference w =
      List.fold_left (fun acc t -> acc + (rival_count i t w * t.wcet)) 0 ifs
    in
    (* q-activation busy windows until the window no longer covers the
       (q+1)-th activation of the task itself *)
    let rec windows q worst =
      if q > 1024 then
        raise (Unschedulable (i.task_name ^ ": unbounded backlog"))
      else begin
        let w = fix ~base:(b + (q * i.wcet)) ~interference i.task_name in
        let bunched =
          if i.delta_jitter = 0 then i.stream
          else
            {
              i.stream with
              Evstream.jitter = i.stream.Evstream.jitter + i.delta_jitter;
              (* bunched activations also lose the trigger's minimal
                 separation *)
              dmin = 0;
            }
        in
        let response = w - Evstream.delta_min bunched q in
        let worst = max worst response in
        if Evstream.eta_plus i.stream w > q then windows (q + 1) worst
        else worst
      end
    in
    { task = i; r_max = windows 1 0 }
  in
  List.map analyze_task tasks
