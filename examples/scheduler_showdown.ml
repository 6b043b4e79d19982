(* Using the library on a system that is NOT the paper's case study: a
   small two-processor controller, analyzed under non-preemptive and
   preemptive scheduling (the paper's Figure 4 vs Figure 5 encodings).

   A 10 ms control loop shares its CPU with a sporadic logger that
   hogs the CPU for 30 ms; the control command then crosses a link to
   an actuator CPU.  Preemption rescues the control deadline from the
   logger's long blocks.

   Run with: dune exec examples/scheduler_showdown.exe *)

open Ita_core

let us = Units.us_of_ms

let system cpu_policy =
  let cpu = Resource.processor "CPU" ~mips:10.0 ~policy:cpu_policy in
  let act = Resource.processor "ACT" ~mips:10.0 ~policy:cpu_policy in
  let link =
    Resource.link "LINK" ~kbps:256.0 ~policy:Resource.Priority_nonpreemptive
  in
  let control =
    Scenario.make ~name:"Control"
      ~trigger:(Eventmodel.Periodic_unknown_offset { period = us 10.0 })
      ~band:Scenario.High
      ~steps:
        [
          (* 2 ms of computation at 10 MIPS *)
          Scenario.Compute
            { op = "ComputeLaw"; resource = "CPU"; instructions = 2e4 };
          (* 32 bytes at 256 kbps = 1 ms *)
          Scenario.Transfer { msg = "Command"; resource = "LINK"; bytes = 32 };
          Scenario.Compute
            { op = "Actuate"; resource = "ACT"; instructions = 1e4 };
        ]
      ~requirements:
        [
          {
            Scenario.req_name = "loop";
            from_step = None;
            to_step = 2;
            budget_us = Some (us 10.0);
          };
        ]
  in
  let logger =
    Scenario.make ~name:"Logger"
      ~trigger:(Eventmodel.Sporadic { min_separation = us 50.0 })
      ~band:Scenario.Low
      ~steps:
        [
          (* 30 ms of bookkeeping *)
          Scenario.Compute
            { op = "FlushLog"; resource = "CPU"; instructions = 3e5 };
        ]
      ~requirements:[]
  in
  (* the non-preemptive variant backlogs several control activations
     behind a log flush: size the queues for it *)
  Sysmodel.make ~name:"controller" ~resources:[ cpu; act; link ]
    ~scenarios:[ control; logger ] ~queue_bound:8 ()

let () =
  List.iter
    (fun (label, policy) ->
      let sys = system policy in
      let r = Analyze.wcrt sys ~scenario:"Control" ~requirement:"loop" in
      let verdict =
        match r.Analyze.outcome with
        | Analyze.Exact_wcrt v -> if v < us 10.0 then "deadline met" else "DEADLINE MISSED"
        | _ -> "unknown"
      in
      Format.printf "%-28s control loop worst case: %a ms -> %s@." label
        Analyze.pp_outcome r.Analyze.outcome verdict)
    [
      ("non-preemptive (Figure 4):", Resource.Priority_nonpreemptive);
      ("preemptive (Figure 5):", Resource.Priority_preemptive);
    ]
