(** The min-plus operators {!Gpc} composes: the delay and backlog
    bounds of a greedy component and its leftover service, evaluated
    over breakpoint candidates (exact for the staircase /
    piecewise-linear curves of this library).

    All operators take a [horizon]: the largest window the analysis
    will ever inspect.  It must dominate the longest busy period; the
    {!Gpc} layer picks it from the system's periods and checks
    plausibility. *)

val horizontal_deviation :
  horizon:int -> demand:Curve.t -> service:Curve.t -> int
(** [h(demand, service)]: the delay bound
    [sup_x inf {tau >= 0 | service (x + tau) >= demand x}];
    the classic RTC worst-case delay through a greedy component.
    Returns [max_int] when the service never catches up within the
    horizon. *)

val vertical_deviation :
  horizon:int -> demand:Curve.t -> service:Curve.t -> int
(** Backlog bound [sup_x (demand x - service x)]. *)

val leftover : horizon:int -> service:Curve.t -> demand:Curve.t -> Curve.t
(** Remaining lower service curve after a greedy component consumed
    [demand]: [beta'(d) = sup_{0 <= l <= d} (beta l - alpha l)],
    clamped at 0. *)
