open Ita_core

let mmi =
  Resource.processor "MMI" ~mips:22.0 ~policy:Resource.Priority_preemptive

let rad =
  Resource.processor "RAD" ~mips:11.0 ~policy:Resource.Priority_preemptive

let nav =
  Resource.processor "NAV" ~mips:113.0 ~policy:Resource.Priority_preemptive

let bus = Resource.link "BUS" ~kbps:72.0 ~policy:Resource.Priority_preemptive

let change_volume_period_us = 31_250
let address_lookup_period_us = 1_000_000
let tmc_period_us = 3_000_000

let change_volume trigger =
  Scenario.make ~name:"ChangeVolume" ~trigger ~band:Scenario.High
    ~steps:
      [
        Scenario.Compute
          { op = "HandleKeyPress"; resource = "MMI"; instructions = 1e5 };
        Scenario.Transfer { msg = "SetVolume"; resource = "BUS"; bytes = 4 };
        Scenario.Compute
          { op = "AdjustVolume"; resource = "RAD"; instructions = 1e5 };
        Scenario.Transfer { msg = "GetVolume"; resource = "BUS"; bytes = 4 };
        Scenario.Compute
          { op = "UpdateScreen"; resource = "MMI"; instructions = 5e5 };
      ]
    ~requirements:
      [
        {
          Scenario.req_name = "K2A";
          from_step = None;
          to_step = 2;
          budget_us = None;
        };
        {
          Scenario.req_name = "A2V";
          from_step = Some 2;
          to_step = 4;
          budget_us = Some 50_000;
        };
        {
          Scenario.req_name = "K2V";
          from_step = None;
          to_step = 4;
          budget_us = Some 200_000;
        };
      ]

let address_lookup trigger =
  Scenario.make ~name:"AddressLookup" ~trigger ~band:Scenario.High
    ~steps:
      [
        Scenario.Compute
          { op = "HandleKeyPress"; resource = "MMI"; instructions = 1e5 };
        Scenario.Transfer { msg = "Query"; resource = "BUS"; bytes = 4 };
        Scenario.Compute
          { op = "DatabaseLookup"; resource = "NAV"; instructions = 5e6 };
        Scenario.Transfer { msg = "Result"; resource = "BUS"; bytes = 64 };
        Scenario.Compute
          { op = "UpdateScreen"; resource = "MMI"; instructions = 5e5 };
      ]
    ~requirements:
      [
        {
          Scenario.req_name = "E2E";
          from_step = None;
          to_step = 4;
          budget_us = Some 200_000;
        };
      ]

let handle_tmc trigger =
  Scenario.make ~name:"HandleTMC" ~trigger ~band:Scenario.Low
    ~steps:
      [
        Scenario.Compute
          { op = "HandleTMC"; resource = "RAD"; instructions = 1e6 };
        Scenario.Transfer { msg = "TMCData"; resource = "BUS"; bytes = 64 };
        Scenario.Compute
          { op = "DecodeTMC"; resource = "NAV"; instructions = 5e6 };
        Scenario.Transfer { msg = "TMCResult"; resource = "BUS"; bytes = 64 };
        Scenario.Compute
          { op = "UpdateScreen"; resource = "MMI"; instructions = 5e5 };
      ]
    ~requirements:
      [
        {
          Scenario.req_name = "TMC";
          from_step = None;
          to_step = 4;
          budget_us = Some 1_000_000;
        };
      ]

type column = Po | Pno | Sp | Pj | Bur

let column_name = function
  | Po -> "po"
  | Pno -> "pno"
  | Sp -> "sp"
  | Pj -> "pj"
  | Bur -> "bur"

let trigger column ~period =
  match column with
  | Po -> Eventmodel.Periodic { period; offset = 0 }
  | Pno -> Eventmodel.Periodic_unknown_offset { period }
  | Sp -> Eventmodel.Sporadic { min_separation = period }
  | Pj -> Eventmodel.Periodic_jitter { period; jitter = period }
  | Bur -> Eventmodel.Bursty { period; jitter = 2 * period; min_separation = 0 }

(* In the pj and bur columns only the radio station is jittery/bursty;
   the other actors are sporadic (paper Section 4). *)
let other_trigger column ~period =
  match column with
  | Po | Pno | Sp -> trigger column ~period
  | Pj | Bur -> Eventmodel.Sporadic { min_separation = period }

let columns = [ Po; Pno; Sp; Pj; Bur ]

type combo = Cv_tmc | Al_tmc

let combos = [ Cv_tmc; Al_tmc ]
let combo_name = function Cv_tmc -> "cv" | Al_tmc -> "al"

let system combo column =
  let tmc = handle_tmc (trigger column ~period:tmc_period_us) in
  let scenarios =
    match combo with
    | Cv_tmc ->
        [
          change_volume
            (other_trigger column ~period:change_volume_period_us);
          tmc;
        ]
    | Al_tmc ->
        [
          address_lookup
            (other_trigger column ~period:address_lookup_period_us);
          tmc;
        ]
  in
  Sysmodel.make
    ~name:
      (Printf.sprintf "radionav-%s-%s" (combo_name combo) (column_name column))
    ~resources:[ mmi; rad; nav; bus ]
    ~scenarios ()

let system_with ?mmi_mips ?rad_mips ?nav_mips ?bus_kbps
    ?cpu_policy ?bus_policy ?decode_on combo column =
  let sys = system combo column in
  let set_mips name mips sys =
    match mips with
    | None -> sys
    | Some mips ->
        Sysmodel.with_resource sys name (fun r ->
            Resource.processor r.Resource.name ~mips ~policy:r.Resource.policy)
  in
  let sys = set_mips "MMI" mmi_mips sys in
  let sys = set_mips "RAD" rad_mips sys in
  let sys = set_mips "NAV" nav_mips sys in
  let sys =
    match bus_kbps with
    | None -> sys
    | Some kbps ->
        Sysmodel.with_resource sys "BUS" (fun r ->
            Resource.link r.Resource.name ~kbps ~policy:r.Resource.policy)
  in
  let sys =
    match cpu_policy with
    | None -> sys
    | Some policy ->
        List.fold_left
          (fun sys name ->
            Sysmodel.with_resource sys name (fun r -> { r with Resource.policy }))
          sys [ "MMI"; "RAD"; "NAV" ]
  in
  let sys =
    match bus_policy with
    | None -> sys
    | Some policy ->
        Sysmodel.with_resource sys "BUS" (fun r -> { r with Resource.policy })
  in
  match decode_on with
  | None -> sys
  | Some resource ->
      (* DecodeTMC is HandleTMC's step 2 (paper Figure 3) *)
      Sysmodel.remap_step sys ~scenario:"HandleTMC" ~step:2 ~resource

type row = {
  label : string;
  combo : combo;
  scenario : string;
  requirement : string;
}

let table1_rows =
  [
    {
      label = "HandleTMC (+ ChangeVolume)";
      combo = Cv_tmc;
      scenario = "HandleTMC";
      requirement = "TMC";
    };
    {
      label = "HandleTMC (+ AddressLookup)";
      combo = Al_tmc;
      scenario = "HandleTMC";
      requirement = "TMC";
    };
    {
      label = "K2A (ChangeVolume + HandleTMC)";
      combo = Cv_tmc;
      scenario = "ChangeVolume";
      requirement = "K2A";
    };
    {
      label = "A2V (ChangeVolume + HandleTMC)";
      combo = Cv_tmc;
      scenario = "ChangeVolume";
      requirement = "A2V";
    };
    {
      label = "AddressLookup (+ HandleTMC)";
      combo = Al_tmc;
      scenario = "AddressLookup";
      requirement = "E2E";
    };
  ]

let table_budget = 150_000
