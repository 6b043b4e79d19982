open Ita_core

(* worst-case delay of each step, keyed by (scenario name, step index) *)
type t = (string * int, int) Hashtbl.t

exception Diverged of string

(* One global round: each step's arrival curve is its trigger curve;
   resources serve High demand from full service, Low demand from the
   leftover. *)
let round sys ~horizon pendings spreads =
  let arrival (s : Scenario.t) =
    (* step activations happen at the trigger rate: the chain is FIFO,
       so accumulated jitter enters through the backlog and
       cross-stream terms only (cf. Busywindow) *)
    let period, jitter, dmin = Eventmodel.pjd s.Scenario.trigger in
    Curve.upper_pjd ~period ~jitter ~dmin
  in
  let next = Hashtbl.create 16 in
  List.iter
    (fun (r : Resource.t) ->
      let jobs = Sysmodel.jobs_on sys r in
      if jobs <> [] then begin
        let demand_of ((s : Scenario.t), _, st) =
          Curve.scale (arrival s) (Sysmodel.step_duration_us sys st)
        in
        let high, low =
          List.partition
            (fun ((s : Scenario.t), _, _) -> s.Scenario.band = Scenario.High)
            jobs
        in
        let total_high_demand =
          List.fold_left
            (fun acc j -> Curve.add acc (demand_of j))
            Curve.zero high
        in
        let full =
          match r.Resource.policy with
          | Resource.Tdma { slot_us; cycle_us } ->
              (* the classical TDMA lower service curve, as the
                 leftover of a unit-rate server after the periodic
                 blackout demand *)
              let blackout =
                Curve.scale
                  (Curve.upper_pjd ~period:cycle_us ~jitter:0 ~dmin:cycle_us)
                  (cycle_us - slot_us)
              in
              Minplus.leftover ~horizon ~service:Fun.id ~demand:blackout
          | Resource.Nondet_nonpreemptive | Resource.Priority_nonpreemptive
          | Resource.Priority_preemptive | Resource.Priority_segmented _ ->
              Fun.id
        in
        let low_service =
          Minplus.leftover ~horizon ~service:full ~demand:total_high_demand
        in
        let analyze_band service band_jobs =
          List.iter
            (fun (((s : Scenario.t), k, _) as j) ->
              (* Rivals within the band steal service too.  Same-chain
                 rivals are precedence-ordered with the victim
                 (cf. Busywindow.rival_count): downstream steps only
                 contribute the chain's pipeline backlog, upstream
                 steps additionally keep arriving during the window. *)
              let rivals =
                List.fold_left
                  (fun acc ((s' : Scenario.t), k', st') ->
                    let c = Sysmodel.step_duration_us sys st' in
                    if s'.Scenario.name = s.Scenario.name && k' = k then acc
                    else if s'.Scenario.name = s.Scenario.name then begin
                      let backlog =
                        try Hashtbl.find pendings s'.Scenario.name
                        with Not_found -> 0
                      in
                      let pending_demand =
                        Curve.constant (backlog * c)
                      in
                      if k' < k then
                        Curve.add acc
                          (Curve.add pending_demand
                             (Curve.scale (arrival s') c))
                      else Curve.add acc pending_demand
                    end
                    else begin
                      let period, jitter, _ =
                        Eventmodel.pjd s'.Scenario.trigger
                      in
                      let spread =
                        try Hashtbl.find spreads s'.Scenario.name
                        with Not_found -> 0
                      in
                      Curve.add acc
                        (Curve.scale
                           (Curve.upper_pjd ~period
                              ~jitter:(jitter + spread) ~dmin:0)
                           c)
                    end)
                  Curve.zero band_jobs
              in
              let my_service =
                Minplus.leftover ~horizon ~service ~demand:rivals
              in
              Hashtbl.replace next (s.Scenario.name, k)
                (Minplus.horizontal_deviation ~horizon ~demand:(demand_of j)
                   ~service:my_service))
            band_jobs
        in
        analyze_band full high;
        analyze_band low_service low
      end)
    sys.Sysmodel.resources;
  next

let max_iterations = 32

let analyze (sys : Sysmodel.t) =
  let base_horizon =
    4
    * List.fold_left
        (fun acc (s : Scenario.t) ->
          max acc (Eventmodel.period s.Scenario.trigger))
        1 sys.Sysmodel.scenarios
  in
  let rec with_horizon horizon =
    let delays = Hashtbl.create 16 in
    let pendings = Hashtbl.create 8 in
    let spreads = Hashtbl.create 8 in
    let update_chains () =
      List.iter
        (fun (s : Scenario.t) ->
          let r_chain = ref 0 and c_chain = ref 0 in
          List.iteri
            (fun k st ->
              (try r_chain := !r_chain + Hashtbl.find delays (s.Scenario.name, k)
               with Not_found -> ());
              c_chain := !c_chain + Sysmodel.step_duration_us sys st)
            s.Scenario.steps;
          let p = Eventmodel.period s.Scenario.trigger in
          Hashtbl.replace pendings s.Scenario.name
            (max 0 (((!r_chain + p - 1) / p) - 1));
          Hashtbl.replace spreads s.Scenario.name
            (max 0 (!r_chain - !c_chain)))
        sys.Sysmodel.scenarios
    in
    let rec go i =
      if i > max_iterations then raise (Diverged "delays failed to stabilize");
      update_chains ();
      let next = round sys ~horizon pendings spreads in
      let changed = ref false in
      let overflow = ref false in
      Hashtbl.iter
        (fun key delay ->
          if delay = max_int then overflow := true
          else if Hashtbl.find_opt delays key <> Some delay then begin
            changed := true;
            Hashtbl.replace delays key delay
          end)
        next;
      if !overflow then `Grow
      else if !changed then go (i + 1)
      else `Done next
    in
    match go 1 with
    | `Grow ->
        if horizon > 1 lsl 34 then raise (Diverged "horizon exploded");
        with_horizon (horizon * 4)
    | `Done final -> final
  in
  with_horizon base_horizon

let wcrt t sys ~scenario ~requirement =
  let req = Scenario.requirement (Sysmodel.scenario sys scenario) requirement in
  Hashtbl.fold
    (fun (name, k) delay acc ->
      if
        name = scenario
        && Scenario.in_window ~from_step:req.Scenario.from_step
             ~to_step:req.Scenario.to_step k
      then acc + delay
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
