(** Arrival and service curves for Modular Performance Analysis
    (real-time calculus).

    A curve maps window length [delta] (microseconds) to an amount —
    events for arrival curves, execution/transfer microseconds for
    service and demand curves.  Curves are monotone with
    [eval c 0 >= 0].

    The module holds what {!Gpc} builds its curves from: constant,
    rate and upper staircase curves, scaling and sums.

    Representation: an evaluation function plus a generator of the
    curve's raw corners.  The operators in {!Minplus} widen the
    corners of their operands into candidate windows and evaluate
    extrema there, which is exact for the staircase and
    piecewise-linear curves this library builds. *)

type t

val eval : t -> int -> int
(** Monotone (a {!Minplus.leftover} only up to its horizon);
    [eval c d = eval c 0] for [d <= 0].  Nothing is memoised: a call
    walks [c]'s composition once, through the rival sums {!Gpc} builds
    and at most two {!Minplus.leftover} levels (three on TDMA
    resources), each of which evaluates its operands once. *)

val breakpoints : t -> horizon:int -> int list
(** The raw corners in [[0, horizon]]: the steps of a staircase, the
    concatenated corners of a sum's operands, and for a
    {!Minplus.leftover} its operands' corners (not the points where
    its service catches up with a past maximum, which no operator
    samples).  Neither sorted, nor deduplicated, nor widened; a
    constant or a rate has none. *)

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
