(** The min-plus operators {!Gpc} composes: the delay bound of a
    greedy component and its leftover service.  Both sample the same
    candidate windows: each corner of the demand ({!Curve.corners})
    with its predecessor, plus 0 and the horizon.  A leftover peaks
    just before a step of the demand, a delay at the step itself; each
    operator says when that is exact.  test_rtc checks both against
    brute force, on a leftover of a leftover too.

    All operators take a [horizon]: the largest window the analysis
    will ever inspect.  It must dominate the longest busy period; the
    {!Gpc} layer picks it from the system's periods and checks
    plausibility. *)

type service = int -> int
(** A lower service curve: the amount served in every window [d >= 0],
    monotone on [[0, horizon]].  [Fun.id] is the unit-rate server.  A
    service has no corners, so it can only be read, never be a
    demand. *)

val horizontal_deviation :
  horizon:int -> demand:Curve.t -> service:service -> int
(** [h(demand, service)]: the delay bound
    [sup_x inf {tau >= 0 | service (x + tau) >= demand x}];
    the classic RTC worst-case delay through a greedy component.
    Returns [max_int] when the service never catches up within the
    horizon.  Exact, for a service monotone on [[0, horizon]], when
    every catch-up ends inside the horizon: the delay peaks at a corner
    of the demand.  Past it a {!leftover} need not be monotone, so the
    binary search for a later catch-up can overshoot: the result is
    still a sound upper bound, but not always the least one. *)

val leftover : horizon:int -> service:service -> demand:Curve.t -> service
(** Remaining lower service after a greedy component consumed
    [demand]: [beta'(d) = sup_{0 <= l <= d} (beta l - alpha l)],
    clamped at 0.  Exact on [[0, horizon]] for a service monotone
    there: between two steps of the demand [beta - alpha] does not
    fall, so the sup is reached at [d] or just before a step.  Past
    the horizon the sup runs over the candidates up to the horizon and
    [d] itself, a lower bound that need not be monotone.  The sampled
    values are materialised once, so a call evaluates each operand
    once. *)
