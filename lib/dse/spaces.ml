module R = Ita_casestudy.Radionav

let radionav ?(combo = R.Al_tmc) ?(column = R.Po)
    ?(mmi_mips = []) ?(rad_mips = [ 11.0; 22.0 ]) ?(nav_mips = [])
    ?(bus_kbps = [ 48.0; 72.0; 96.0; 120.0 ]) ?(decode_on = []) () =
  let axis_if levels mk = match levels with [] -> [] | ls -> [ mk ls ] in
  let axes =
    axis_if mmi_mips (fun ls -> Space.mips_axis ~resource:"MMI" ls)
    @ axis_if rad_mips (fun ls -> Space.mips_axis ~resource:"RAD" ls)
    @ axis_if nav_mips (fun ls -> Space.mips_axis ~resource:"NAV" ls)
    @ axis_if bus_kbps (fun ls -> Space.kbps_axis ~resource:"BUS" ls)
    @ axis_if decode_on (fun ls ->
          Space.mapping_axis ~scenario:"HandleTMC" ~step:2 ls)
  in
  Space.make
    ~name:
      (Printf.sprintf "radionav-%s-%s" (R.combo_name combo)
         (R.column_name column))
    ~base:(R.system combo column)
    ~axes
