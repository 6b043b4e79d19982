(** Ready-made design spaces over the paper's case study.

    The radio-navigation system of Section 2, with the architecture
    alternatives the paper discusses in Section 4 as axes: processor
    speeds, bus baud rate, and the mapping of the TMC decoding onto a
    processor. *)

val radionav :
  ?combo:Ita_casestudy.Radionav.combo ->
  ?column:Ita_casestudy.Radionav.column ->
  ?mmi_mips:float list ->
  ?rad_mips:float list ->
  ?nav_mips:float list ->
  ?bus_kbps:float list ->
  ?decode_on:string list ->
  unit ->
  Space.t
(** Default space: the AddressLookup+HandleTMC combination under the
    periodic-with-offset column, RAD at 11 or 22 MIPS, the bus at 48,
    72, 96 or 120 kbit/s — 8 candidates bracketing the paper's
    deployment.  An empty level list drops that axis; [decode_on]
    (e.g. [["NAV"; "RAD"]]) adds the "move DecodeTMC" mapping
    axis. *)
