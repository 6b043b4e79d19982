(** Arrival and service curves for Modular Performance Analysis
    (real-time calculus).

    A curve maps window length [delta] (microseconds) to an amount —
    events for arrival curves, execution/transfer microseconds for
    service and demand curves.  Curves are monotone with
    [eval c 0 >= 0].

    The module holds what {!Gpc} builds its curves from: constant,
    rate and upper staircase curves, scaling and sums.

    Representation: an evaluation function plus a breakpoint
    generator.  All min-plus operators in {!Minplus} evaluate extrema
    over the union of the operands' breakpoints, which is exact for
    the staircase and piecewise-linear curves this library builds
    (extrema of differences of such curves occur at their corners —
    we include each corner and its immediate neighbours). *)

type t

val eval : t -> int -> int
(** Monotone (a {!Minplus.leftover} only up to its horizon);
    [eval c d = eval c 0] for [d <= 0].  Nothing is memoised: a call
    walks [c]'s composition once, through the rival sums {!Gpc} builds
    and at most two {!Minplus.leftover} levels (three on TDMA
    resources), each of which evaluates its operands once. *)

val breakpoints : t -> horizon:int -> int list
(** Sorted candidate abscissae in [[0, horizon]], always including 0
    and [horizon]. *)

val make : eval:(int -> int) -> breakpoints:(horizon:int -> int list) -> t

val zero : t

val constant : int -> t
(** [constant k] is [k] for every window, including 0-length ones —
    pending backlog demand. *)

val rate : int -> t
(** Full service at [r] units per microsecond; use [rate 1] for a
    dedicated resource in work units. *)

val upper_pjd : period:int -> jitter:int -> dmin:int -> t
(** Standard upper staircase arrival curve, closed-window convention:
    [alpha^u(d) = min(floor((d + J) / P) + 1, floor(d / D) + 1)] (the
    second term only when [dmin > 0]), so [alpha^u(0)] is the maximal
    instantaneous burst. *)

val scale : t -> int -> t
(** [scale c k] multiplies values by [k] — events to work units. *)

val add : t -> t -> t
