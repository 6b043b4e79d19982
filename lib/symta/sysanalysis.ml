open Ita_core

(* the response of each step, keyed by (scenario name, step index) *)
type t = (string * int, Busywindow.response) Hashtbl.t

exception Diverged of string

let discipline_of (r : Resource.t) =
  match r.Resource.policy with
  | Resource.Priority_preemptive -> Busywindow.Preemptive
  | Resource.Nondet_nonpreemptive | Resource.Priority_nonpreemptive
  | Resource.Tdma _ | Resource.Priority_segmented _ ->
      Busywindow.Nonpreemptive

(* A TDMA blackout behaves like a periodic top-band task of length
   cycle - slot. *)
let virtual_tasks (r : Resource.t) =
  match r.Resource.policy with
  | Resource.Tdma { slot_us; cycle_us } ->
      let stream =
        { Evstream.period = cycle_us; jitter = 0; dmin = cycle_us }
      in
      [
        {
          Busywindow.task_name = r.Resource.name ^ "/blackout";
          group = "__tdma__" ^ r.Resource.name;
          step_index = 0;
          chain_pending = 0;
          prefix_response = 0;
          delta_jitter = 0;
          block_quantum = cycle_us - slot_us;
          wcet = cycle_us - slot_us;
          stream;
          cross_stream = stream;
          band = Scenario.High;
        };
      ]
  | Resource.Nondet_nonpreemptive | Resource.Priority_nonpreemptive
  | Resource.Priority_preemptive | Resource.Priority_segmented _ ->
      []

(* Chain state carried between rounds: pipeline backlog (pending
   instances), response spread, and per-step response prefixes. *)
type chain_state = { pending : int; spread : int; prefixes : int array }

let initial_chain n = { pending = 0; spread = 0; prefixes = Array.make n 0 }

(* One analysis round under the given per-scenario chain states. *)
let round sys chains =
  let responses = Hashtbl.create 16 in
  let chain_of (s : Scenario.t) =
    try Hashtbl.find chains s.Scenario.name
    with Not_found -> initial_chain (Scenario.n_steps s)
  in
  List.iter
    (fun (r : Resource.t) ->
      let jobs = Sysmodel.jobs_on sys r in
      if jobs <> [] then begin
        let tasks =
          List.map
            (fun ((s : Scenario.t), k, st) ->
              let trigger = Evstream.of_eventmodel s.Scenario.trigger in
              let chain = chain_of s in
              {
                Busywindow.task_name =
                  Printf.sprintf "%s/%s" s.Scenario.name
                    (Scenario.step_name st);
                group = s.Scenario.name;
                step_index = k;
                chain_pending = chain.pending;
                prefix_response = chain.prefixes.(k);
                (* 0: activations are treated as trigger-spaced.  The
                   pipeline-bunching refinement (spread-widened
                   delta_min) is sound but feeds the global fixpoint
                   with gain close to one on this case study's 87%%
                   loaded MMI and multiplies every ChangeVolume bound
                   by 3-5x; like SymTA/S we accept that windows
                   measured from mid-chain points can slightly exceed
                   the compositional bound (see EXPERIMENTS.md). *)
                delta_jitter = 0;
                block_quantum =
                  (let wcet = Sysmodel.step_duration_us sys st in
                   match (r.Resource.policy, st, r.Resource.kind) with
                   | ( Resource.Priority_segmented { frame_bytes },
                       Scenario.Transfer { bytes = _; _ },
                       Resource.Link { kbps } ) ->
                       min wcet (Units.us_of_bytes ~bytes:frame_bytes ~kbps)
                   | _, _, _ -> wcet);
                wcet = Sysmodel.step_duration_us sys st;
                stream = trigger;
                cross_stream =
                  {
                    trigger with
                    Evstream.jitter = trigger.Evstream.jitter + chain.spread;
                    dmin = 0;
                  };
                band = s.Scenario.band;
              })
            jobs
        in
        let all_responses =
          Busywindow.analyze (discipline_of r) (tasks @ virtual_tasks r)
        in
        List.iter2
          (fun ((s : Scenario.t), k, _) (resp : Busywindow.response) ->
            Hashtbl.replace responses (s.Scenario.name, k) resp)
          jobs
          (List.filteri (fun i _ -> i < List.length jobs) all_responses)
      end)
    sys.Sysmodel.resources;
  responses

(* Monotone update: merged with the previous state (elementwise max)
   so the fixpoint iteration cannot oscillate between readings that
   differ by integer rounding. *)
let chain_update sys responses previous =
  let chains = Hashtbl.create 8 in
  List.iter
    (fun (s : Scenario.t) ->
      let n = Scenario.n_steps s in
      let prefixes = Array.make n 0 in
      let r_chain = ref 0 and c_chain = ref 0 in
      List.iteri
        (fun k st ->
          prefixes.(k) <- !r_chain;
          let resp : Busywindow.response =
            Hashtbl.find responses (s.Scenario.name, k)
          in
          r_chain := !r_chain + resp.Busywindow.r_max;
          c_chain := !c_chain + Sysmodel.step_duration_us sys st)
        s.Scenario.steps;
      let p = Eventmodel.period s.Scenario.trigger in
      let fresh =
        {
          pending = max 0 (((!r_chain + p - 1) / p) - 1);
          spread = max 0 (!r_chain - !c_chain);
          prefixes;
        }
      in
      let merged =
        match Hashtbl.find_opt previous s.Scenario.name with
        | None -> fresh
        | Some old ->
            {
              pending = max old.pending fresh.pending;
              spread = max old.spread fresh.spread;
              prefixes = Array.map2 max old.prefixes fresh.prefixes;
            }
      in
      Hashtbl.replace chains s.Scenario.name merged)
    sys.Sysmodel.scenarios;
  chains

let chains_equal c1 c2 =
  Hashtbl.length c1 = Hashtbl.length c2
  && Hashtbl.fold
       (fun key (v : chain_state) acc ->
         acc
         &&
         match Hashtbl.find_opt c2 key with
         | Some v' ->
             v.pending = v'.pending && v.spread = v'.spread
             && v.prefixes = v'.prefixes
         | None -> false)
       c1 true

let max_iterations = 64

let analyze (sys : Sysmodel.t) =
  let rec go chains iterations =
    if iterations > max_iterations then
      raise (Diverged "chain states failed to stabilize")
    else
      let responses = round sys chains in
      let chains' = chain_update sys responses chains in
      if chains_equal chains chains' then responses
      else go chains' (iterations + 1)
  in
  go (Hashtbl.create 8) 1

let wcrt t sys ~scenario ~requirement =
  let req = Scenario.requirement (Sysmodel.scenario sys scenario) requirement in
  Hashtbl.fold
    (fun (name, k) (resp : Busywindow.response) acc ->
      if
        name = scenario
        && Scenario.in_window ~from_step:req.Scenario.from_step
             ~to_step:req.Scenario.to_step k
      then acc + resp.Busywindow.r_max
      else acc)
    t 0

let wcrt_bound sys ~scenario ~requirement =
  match analyze sys with
  | t -> (
      match wcrt t sys ~scenario ~requirement with
      | v -> Ok v
      | exception Not_found ->
          Error
            (Printf.sprintf "unknown scenario/requirement %s/%s" scenario
               requirement))
  | exception Diverged msg -> Error ("diverged: " ^ msg)
  | exception Busywindow.Unschedulable msg -> Error ("unschedulable: " ^ msg)
