(** Human-readable dumps of networks and automata — the textual
    counterpart of the paper's Figures 4 to 9, produced from the
    generated model so the encoding can be inspected and reviewed. *)

val pp_network : Format.formatter -> Network.t -> unit
(** Declarations (clocks, variables with ranges, channels) followed by
    every automaton. *)
