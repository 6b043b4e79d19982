open Ita_core
module Reach = Ita_mc.Reach
module Wcrt = Ita_mc.Wcrt

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
  mc_abstraction : Reach.abstraction;
  mc_domains : int option;
  mc_certify : bool;
  sim_runs : int;
  sim_horizon_us : int;
}

let default_budget =
  {
    mc_states = None;
    mc_seconds = None;
    mc_abstraction = Reach.ExtraLU;
    mc_domains = None;
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

let measure_us = function
  | Exact v | Lower v | Upper v -> Some v
  | Unbounded | No_response | Failed _ -> None

type result = { measure : measure; elapsed : float; explored : int }

let run_mc spec =
  let s = Sysmodel.scenario spec.sys spec.scenario in
  let req = Scenario.requirement s spec.requirement in
  let gen = Gen.generate ~measure:(spec.scenario, req) spec.sys in
  let obs = Option.get gen.Gen.observer in
  let budget =
    {
      Reach.max_states = spec.budget.mc_states;
      Reach.max_seconds = spec.budget.mc_seconds;
    }
  in
  let snap_ref = ref None in
  let snap =
    if spec.budget.mc_certify then
      Some (fun s -> snap_ref := Some s)
    else None
  in
  match
    Wcrt.sup ~budget ~abstraction:spec.budget.mc_abstraction
      ?domains:spec.budget.mc_domains ?snap gen.Gen.net ~at:obs.Gen.seen
      ~clock:obs.Gen.obs_clock
  with
  | Wcrt.Sup { value; kind; stats } -> (
      (* a certified mc cell: re-validate the exact verdict with the
         independent checker before it may enter the Pareto front; a
         rejected certificate demotes the cell to [Failed] rather
         than letting an unproven number drive design choices *)
      match !snap_ref with
      | None ->
          { measure = Exact value; elapsed = stats.Reach.elapsed; explored = stats.Reach.explored }
      | Some snapshot -> (
          let module Cert = Ita_cert.Cert in
          let kind =
            match kind with
            | Wcrt.Attained -> Cert.Attained
            | Wcrt.Approached -> Cert.Approached
          in
          let qc =
            Ita_mc.Cert_emit.of_snapshot ~index:0
              ~verdict:(Cert.Sup { clock = obs.Gen.obs_clock; value; kind })
              snapshot
          in
          let goal = Ita_mc.Cert_emit.goal_of_query obs.Gen.seen in
          match Cert.check gen.Gen.net ~goal qc with
          | Ok _ ->
              { measure = Exact value; elapsed = stats.Reach.elapsed; explored = stats.Reach.explored }
          | Error f ->
              {
                measure =
                  Failed
                    (Printf.sprintf "certificate rejected [%s] %s"
                       (Cert.obligation_name f.Cert.obligation)
                       f.Cert.message);
                elapsed = stats.Reach.elapsed;
                explored = stats.Reach.explored;
              }))
  | Wcrt.Goal_unreachable stats ->
      { measure = No_response; elapsed = stats.Reach.elapsed; explored = stats.Reach.explored }
  | Wcrt.Sup_budget_exhausted { observed = Some v; stats } ->
      { measure = Lower v; elapsed = stats.Reach.elapsed; explored = stats.Reach.explored }
  | Wcrt.Sup_budget_exhausted { observed = None; stats } ->
      {
        measure = Failed "budget exhausted before any response was observed";
        elapsed = stats.Reach.elapsed;
        explored = stats.Reach.explored;
      }
  | Wcrt.Sup_unbounded { stats; _ } ->
      { measure = Unbounded; elapsed = stats.Reach.elapsed; explored = stats.Reach.explored }

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
