(* Event arrival models matter: the same architecture under the five
   environment columns of the paper's Table 1, for the HandleTMC
   requirement next to AddressLookup.

   po (synchronous periodic) gives the smallest worst case; releasing
   the offsets (pno), then the periods (sp), then adding jitter (pj)
   and bursts (bur) each uncover strictly worse schedules.  Every cell
   runs under the Table 1 state budget: bur outgrows it, so its entry
   is the larger response the exhaustive run and its depth-first rerun
   observed, a lower bound (">= value").

   Run with: dune exec examples/bursty_gate.exe *)

open Ita_core
module R = Ita_casestudy.Radionav
module Reach = Ita_mc.Reach

let () =
  Format.printf "HandleTMC (+ AddressLookup) WCRT per event model:@.";
  List.iter
    (fun column ->
      let r =
        Analyze.wcrt
          ~budget:(Reach.states R.table_budget)
          (R.system R.Al_tmc column) ~scenario:"HandleTMC"
          ~requirement:"TMC"
      in
      Format.printf "  %-4s: %10s ms  (%d states, %.2fs)@."
        (R.column_name column)
        (Format.asprintf "%a" Analyze.pp_outcome r.Analyze.outcome)
        r.Analyze.explored r.Analyze.elapsed)
    [ R.Po; R.Pno; R.Sp; R.Pj; R.Bur ]
