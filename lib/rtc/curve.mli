(** Demand curves for Modular Performance Analysis (real-time
    calculus).

    A demand maps window length [delta] (microseconds) to an amount —
    events for arrival curves, execution/transfer microseconds once
    scaled.  Demands are monotone with [eval c 0 >= 0].

    The module holds what {!Gpc} builds its demands from: constants
    and upper staircases, scaling and sums.  Service is the other
    role: a monotone function ({!Minplus.service}) with no corners.

    Representation: an evaluation function plus a generator of the
    demand's corners, the windows where it steps up.  The operators in
    {!Minplus} sample each corner and its predecessor, which is exact
    for the staircase demands this module builds. *)

type t

val eval : t -> int -> int
(** Monotone; [eval c d = eval c 0] for [d <= 0].  Nothing is
    memoised: a call walks [c]'s sum once. *)

val corners : t -> horizon:int -> int list
(** The windows in [[0, horizon]] where the demand steps up: the steps
    of each staircase, concatenated over a sum's operands.  Neither
    sorted nor deduplicated; a constant has none. *)

val zero : t

val constant : int -> t
(** [constant k] is [k] for every window, including 0-length ones —
    pending backlog demand. *)

val upper_pjd : period:int -> jitter:int -> dmin:int -> t
(** Standard upper staircase arrival curve, closed-window convention:
    [alpha^u(d) = min(floor((d + J) / P) + 1, floor(d / D) + 1)] (the
    second term only when [dmin > 0]), so [alpha^u(0)] is the maximal
    instantaneous burst. *)

val scale : t -> int -> t
(** [scale c k] multiplies values by [k] — events to work units. *)

val add : t -> t -> t
