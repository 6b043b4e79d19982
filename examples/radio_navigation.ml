(* The paper's case study end to end: describe the in-car radio
   navigation architecture, generate its timed-automata network
   automatically, and model-check two timeliness requirements of the
   AddressLookup + HandleTMC combination (the fast half of Table 1).

   Run with: dune exec examples/radio_navigation.exe *)

open Ita_core
module R = Ita_casestudy.Radionav

let () =
  let sys = R.system R.Al_tmc R.Pno in
  Format.printf "%a@." Sysmodel.pp sys;

  (* what does the generated network look like? *)
  let gen = Gen.generate sys in
  Format.printf "generated %d automata over %d clocks and %d variables@.@."
    (Ita_ta.Network.n_components gen.Gen.net)
    (Ita_ta.Network.n_clocks gen.Gen.net)
    (Array.length gen.Gen.net.Ita_ta.Network.var_names);

  (* exact worst-case response times *)
  let report scenario requirement =
    let r = Analyze.wcrt sys ~scenario ~requirement in
    let s = Sysmodel.scenario sys scenario in
    let req = Scenario.requirement s requirement in
    Format.printf
      "%-14s %-4s: uncontended %a ms, worst case %a ms%s (%d states, %.2fs)@."
      scenario requirement Units.pp_ms r.Analyze.uncontended_us
      Analyze.pp_outcome r.Analyze.outcome
      (match req.Scenario.budget_us with
      | Some budget ->
          Printf.sprintf " [budget %.0f ms: %s]"
            (Units.ms_of_us budget)
            (match
               Analyze.outcome_verdict ~deadline_us:budget r.Analyze.outcome
             with
            | Analyze.Met -> "met"
            | Analyze.Violated | Analyze.Unknown -> "VIOLATED/UNKNOWN")
      | None -> "")
      r.Analyze.explored r.Analyze.elapsed
  in
  report "AddressLookup" "E2E";
  report "HandleTMC" "TMC";

  (* or ask the paper's question directly: does the product work, given
     the stated timeliness budgets? *)
  Format.printf "@.budget check:@.";
  List.iter
    (fun r -> Format.printf "  %a@." Analyze.pp_budget_report r)
    (Analyze.check_budgets sys)
