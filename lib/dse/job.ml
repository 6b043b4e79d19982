open Ita_core
module Reach = Ita_mc.Reach

type technique = Mc | Sim | Symta | Rtc

let all_techniques = [ Mc; Sim; Symta; Rtc ]

let technique_name = function
  | Mc -> "mc"
  | Sim -> "sim"
  | Symta -> "symta"
  | Rtc -> "rtc"

let technique_of_string = function
  | "mc" -> Ok Mc
  | "sim" -> Ok Sim
  | "symta" -> Ok Symta
  | "rtc" -> Ok Rtc
  | s -> Error (Printf.sprintf "unknown technique %S (mc/sim/symta/rtc)" s)

type budget = {
  mc_states : int option;
  mc_seconds : float option;
  mc_certify : bool;
  sim_runs : int;
  sim_horizon_us : int;
}

let default_budget =
  {
    mc_states = None;
    mc_seconds = None;
    mc_certify = false;
    sim_runs = 5;
    sim_horizon_us = 30_000_000;
  }

type spec = {
  sys : Sysmodel.t;
  technique : technique;
  scenario : string;
  requirement : string;
  budget : budget;
}

type measure =
  | Exact of int
  | Lower of int
  | Upper of int
  | Unbounded
  | No_response
  | Failed of string

type result = { measure : measure; elapsed : float; explored : int }

let run_mc spec =
  let r =
    Analyze.wcrt
      ~budget:
        {
          Reach.max_states = spec.budget.mc_states;
          max_seconds = spec.budget.mc_seconds;
        }
      ~certify:spec.budget.mc_certify
      spec.sys ~scenario:spec.scenario ~requirement:spec.requirement
  in
  let measure =
    match (r.Analyze.outcome, r.Analyze.certified) with
    (* a rejected certificate demotes the cell to [Failed] rather than
       letting an unproven number drive design choices *)
    | _, Some (Error f) ->
        let module Cert = Ita_cert.Cert in
        Failed
          (Printf.sprintf "certificate rejected [%s] %s"
             (Cert.obligation_name f.Cert.obligation)
             f.Cert.message)
    | Analyze.Exact_wcrt v, _ -> Exact v
    | Analyze.Wcrt_lower_bound { value; _ }, _ -> Lower value
    | Analyze.Unobserved _, _ ->
        Failed "budget exhausted before any response was observed"
    | Analyze.No_response, _ -> No_response
    | Analyze.Unbounded, _ -> Unbounded
  in
  { measure; elapsed = r.Analyze.elapsed; explored = r.Analyze.explored }

let run_sim spec =
  let samples = ref 0 in
  let worst = ref 0 in
  for seed = 1 to spec.budget.sim_runs do
    let stats =
      Ita_sim.Engine.run ~seed ~horizon_us:spec.budget.sim_horizon_us spec.sys
    in
    List.iter
      (fun (s : Ita_sim.Engine.sample) ->
        if
          s.Ita_sim.Engine.scenario = spec.scenario
          && s.Ita_sim.Engine.requirement = spec.requirement
        then begin
          incr samples;
          worst := max !worst s.Ita_sim.Engine.response_us
        end)
      stats.Ita_sim.Engine.samples
  done;
  let measure = if !samples = 0 then No_response else Lower !worst in
  { measure; elapsed = 0.0; explored = !samples }

let run_symta spec =
  match
    Ita_symta.Sysanalysis.wcrt_bound spec.sys ~scenario:spec.scenario
      ~requirement:spec.requirement
  with
  | Ok v -> { measure = Upper v; elapsed = 0.0; explored = 0 }
  | Error msg -> { measure = Failed msg; elapsed = 0.0; explored = 0 }

let run_rtc spec =
  match
    Ita_rtc.Gpc.wcrt_bound spec.sys ~scenario:spec.scenario
      ~requirement:spec.requirement
  with
  | Ok v -> { measure = Upper v; elapsed = 0.0; explored = 0 }
  | Error msg -> { measure = Failed msg; elapsed = 0.0; explored = 0 }

let run spec =
  (* make sure the names resolve before doing any work, whatever the
     technique: a misnamed requirement is a caller bug *)
  ignore
    (Scenario.requirement
       (Sysmodel.scenario spec.sys spec.scenario)
       spec.requirement);
  let t0 = Unix.gettimeofday () in
  let r =
    match spec.technique with
    | Mc -> run_mc spec
    | Sim -> run_sim spec
    | Symta -> run_symta spec
    | Rtc -> run_rtc spec
  in
  { r with elapsed = Unix.gettimeofday () -. t0 }

let pp_measure ppf = function
  | Exact v -> Units.pp_ms ppf v
  | Lower v -> Format.fprintf ppf ">=%a" Units.pp_ms v
  | Upper v -> Format.fprintf ppf "<=%a" Units.pp_ms v
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | No_response -> Format.pp_print_string ppf "-"
  | Failed _ -> Format.pp_print_string ppf "failed"
