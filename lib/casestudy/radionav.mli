(** The in-car radio navigation case study (paper Section 2).

    Deployment (Figure 1, parameters from the companion MPA study of
    the same system): three processors — MMI at 22 MIPS, RAD at
    11 MIPS, NAV at 113 MIPS — on one 72 kbit/s communication bus.

    Three applications:

    - {b ChangeVolume} (Figure 2): keypress at up to 32/s;
      HandleKeyPress (1e5 instr, MMI) -> SetVolume (4 B) ->
      AdjustVolume (1e5, RAD, audible) -> GetVolume (4 B) ->
      UpdateScreen (5e5, MMI, visual).  Requirements: K2V < 200 ms,
      A2V < 50 ms (and K2A, reported in Table 1).
    - {b AddressLookup}: one lookup per second; HandleKeyPress (1e5,
      MMI) -> query (4 B) -> DatabaseLookup (5e6, NAV) -> result
      (64 B) -> UpdateScreen (5e5, MMI); < 200 ms.
    - {b HandleTMC} (Figure 3): 300 messages per 15 min (one per 3 s);
      HandleTMC (1e6, RAD) -> TMC data (64 B) -> DecodeTMC (5e6, NAV)
      -> result (64 B) -> UpdateScreen (5e5, MMI); < 1 s for urgent
      messages.

    ChangeVolume and AddressLookup have priority over the TMC traffic
    (paper Section 4); processors schedule preemptively in the
    Figure 5 style, the bus arbitrates non-preemptively by priority.

    The paper analyzes two application combinations
    (ChangeVolume+HandleTMC and AddressLookup+HandleTMC) under five
    environment columns (Table 1). *)

open Ita_core

val mmi : Resource.t
val rad : Resource.t
val nav : Resource.t
val bus : Resource.t

val change_volume_period_us : int
(** 31250: 32 events/s. *)

val address_lookup_period_us : int
(** 1000000: one lookup per second. *)

val tmc_period_us : int
(** 3000000: 300 messages per 15 minutes. *)

val change_volume : Eventmodel.t -> Scenario.t
val address_lookup : Eventmodel.t -> Scenario.t
val handle_tmc : Eventmodel.t -> Scenario.t

(** Table 1 columns: which event model each actor uses. *)
type column = Po | Pno | Sp | Pj | Bur

val column_name : column -> string
val trigger : column -> period:int -> Eventmodel.t
(** The measured-combination event model of a column: [Pj] is
    periodic-with-jitter J = P and [Bur] is bursty with J = 2P, D = 0
    for the radio station, while the other actors fall back to
    sporadic in those columns — exactly the paper's setup. *)

val columns : column list
(** Table 1 order: po, pno, sp, pj, bur. *)

(** The two analyzed application combinations. *)
type combo = Cv_tmc | Al_tmc

val combos : combo list
val combo_name : combo -> string
(** Short tags: "cv" and "al". *)

val system : combo -> column -> Sysmodel.t

val system_with :
  ?mmi_mips:float ->
  ?rad_mips:float ->
  ?nav_mips:float ->
  ?bus_kbps:float ->
  ?cpu_policy:Resource.policy ->
  ?bus_policy:Resource.policy ->
  ?decode_on:string ->
  combo ->
  column ->
  Sysmodel.t
(** The configuration space behind {!system}: the same deployment
    with any of the paper's architecture alternatives applied —
    different CPU speeds, bus baud rate, scheduling policies, and
    [decode_on] moving the DecodeTMC computation onto another
    processor ("moving functionality between processors", the
    paper's Section 4 design question).  Defaults reproduce
    {!system} exactly. *)

(** One row of Table 1 / Table 2: a requirement measured in a
    combination. *)
type row = {
  label : string;  (** the paper's row label *)
  combo : combo;
  scenario : string;
  requirement : string;
}

val table1_rows : row list

val table_budget : int
(** 150_000: the state budget of each Table 1 and Table 2 cell, for
    each of [Analyze.wcrt]'s runs.  At one domain it leaves at least
    30 % headroom over the largest cells that finish exhaustively
    (AddressLookup bur at 102 335 explored states, HandleTMC+ChangeVolume
    pno at 114 840); several domains may explore more.  The cells
    beyond it print the larger response their breadth-first and
    depth-first runs observed, a lower bound. *)
