(** Standard event streams in the (P, J, D) parametrization, as used by
    SymTA/S-style compositional scheduling analysis.

    The arrival function bounds how many events can fall in any
    half-open window of length [delta]:
    [eta_plus delta = min(ceil((delta + J) / P),
    floor((delta - 1) / D) + 1)] (second term only when [D > 0]). *)

type t = { period : int; jitter : int; dmin : int }

val of_eventmodel : Ita_core.Eventmodel.t -> t

val eta_plus : t -> int -> int
(** [eta_plus s delta] for [delta >= 0]; [eta_plus s 0 = 0], and
    [eta_plus s 1] is the maximal burst that can arrive "at once"
    (within an epsilon window). *)

val delta_min : t -> int -> int
(** [delta_min s q] is the minimal time in which [q] events can
    arrive: the pseudo-inverse of [eta_plus], i.e. the earliest arrival
    of the [q]-th event of a burst relative to the first.  [q >= 1]. *)
