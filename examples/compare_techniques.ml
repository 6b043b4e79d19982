(* The paper's Table 2 in miniature: one requirement (HandleTMC next
   to AddressLookup, pno), four techniques — exhaustive model checking,
   discrete-event simulation, busy-window analysis, real-time calculus.

   The expected shape (paper Section 5): simulation finds less than the
   model checker (it samples behaviors), the analytic techniques find
   more (they are conservative).

   Run with: dune exec examples/compare_techniques.exe *)

open Ita_core
module R = Ita_casestudy.Radionav

let scenario = "HandleTMC"
let requirement = "TMC"

let () =
  let sys = R.system R.Al_tmc R.Pno in

  (* 1. model checking: exact *)
  let mc =
    let r = Analyze.wcrt sys ~scenario ~requirement in
    match r.Analyze.outcome with
    | Analyze.Exact_wcrt v -> v
    | _ -> 0
  in

  (* 2. simulation: max over sampled schedules *)
  let sim =
    Ita_sim.Engine.max_response ~runs:20 ~horizon_us:60_000_000 sys ~scenario
      ~requirement
  in

  (* 3. busy-window analysis: conservative *)
  let symta =
    let t = Ita_symta.Sysanalysis.analyze sys in
    Ita_symta.Sysanalysis.wcrt t sys ~scenario ~requirement
  in

  (* 4. real-time calculus: conservative *)
  let mpa =
    let t = Ita_rtc.Gpc.analyze sys in
    Ita_rtc.Gpc.wcrt t sys ~scenario ~requirement
  in

  Format.printf "HandleTMC worst-case response time, four ways:@.";
  Format.printf "  simulation (20 seeds) : %a ms@." Units.pp_ms sim;
  Format.printf "  model checking        : %a ms  (exact)@." Units.pp_ms mc;
  Format.printf "  busy-window (SymTA/S) : %a ms@." Units.pp_ms symta;
  Format.printf "  calculus (MPA)        : %a ms@." Units.pp_ms mpa;
  if sim <= mc && mc <= symta && mc <= mpa then
    Format.printf "shape holds: simulation <= exact <= analytic bounds@."
  else
    Format.printf "SHAPE VIOLATION - investigate!@."
