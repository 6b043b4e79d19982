(** Discrete-event simulation of an architecture model — the POOSL /
    SHESIM baseline of the paper's Table 2.

    One run executes a single concrete schedule: arrivals are sampled
    from the event models (seeded), resources dispatch
    highest-band-first and FIFO within a band, preemptive resources
    suspend the running Low job the instant a High activation arrives
    (remaining work is conserved).

    Simulation explores a measure-one subset of behaviors, so its
    maxima are lower bounds on the true WCRT — the paper's point about
    POOSL results sitting below the model-checked values. *)

type sample = {
  scenario : string;
  requirement : string;
  response_us : int;
}

type run_stats = {
  samples : sample list;
  busy_us : (string * int) list;  (** per-resource busy time *)
}

val run : seed:int -> horizon_us:int -> Ita_core.Sysmodel.t -> run_stats
(** Simulate until [horizon_us]; every completed requirement window of
    every event instance contributes one sample.  Sporadic
    inter-arrival gaps are stretched by a uniform factor in [1, 1.1]. *)

val max_response :
  runs:int ->
  horizon_us:int ->
  Ita_core.Sysmodel.t ->
  scenario:string ->
  requirement:string ->
  int
(** Worst response of one requirement over [runs] seeded runs
    (seeds [1 .. runs]) —
    the simulation estimate of a WCRT, a statistical {e lower} bound.
    Returns 0 when no window of the requirement ever completed. *)
