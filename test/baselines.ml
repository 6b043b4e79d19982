(* Prints the analytic baselines' answers, one line per cell: MPA's
   [Gpc.wcrt_bound] and SymTA/S's [Sysanalysis.wcrt_bound].  The cells
   are the DSE sweep's grid (RAD x NAV x MMI MIPS x bus kbit/s x column
   on the AddressLookup+HandleTMC combination, both requirements) and
   the 25 cells of Table 1.  The [baselines.expected] golden pins the
   output, so a change to either baseline that moves any answer shows
   as a diff. *)

module R = Ita_casestudy.Radionav

let answer = function
  | Ok v -> string_of_int v
  | Error msg -> "error: " ^ msg

let print_cell label sys ~scenario ~requirement =
  Printf.printf "%s %s/%s mpa %s symta %s\n" label scenario requirement
    (answer (Ita_rtc.Gpc.wcrt_bound sys ~scenario ~requirement))
    (answer (Ita_symta.Sysanalysis.wcrt_bound sys ~scenario ~requirement))

let grid () =
  List.iter
    (fun rad ->
      List.iter
        (fun nav ->
          List.iter
            (fun mmi ->
              List.iter
                (fun bus ->
                  List.iter
                    (fun column ->
                      let sys =
                        R.system_with ~rad_mips:rad ~nav_mips:nav
                          ~mmi_mips:mmi ~bus_kbps:bus R.Al_tmc column
                      in
                      let label =
                        Printf.sprintf "al %s RAD=%g NAV=%g MMI=%g BUS=%g"
                          (R.column_name column) rad nav mmi bus
                      in
                      List.iter
                        (fun (scenario, requirement) ->
                          print_cell label sys ~scenario ~requirement)
                        [ ("HandleTMC", "TMC"); ("AddressLookup", "E2E") ])
                    [ R.Po; R.Pno; R.Sp ])
                [ 48.; 60.; 72.; 96.; 120.; 144. ])
            [ 22.; 33. ])
        [ 80.; 113.; 150. ])
    [ 11.; 16.5; 22.; 33. ]

let table1 () =
  List.iter
    (fun (row : R.row) ->
      List.iter
        (fun column ->
          let label =
            Printf.sprintf "table1 %s %s" (R.combo_name row.R.combo)
              (R.column_name column)
          in
          print_cell label
            (R.system row.R.combo column)
            ~scenario:row.R.scenario ~requirement:row.R.requirement)
        R.columns)
    R.table1_rows

let () =
  grid ();
  table1 ()
