(** Automatic construction of the UPPAAL-style timed-automata network
    from an architecture model — the paper's Section 3 patterns, and
    its conclusion's "should be automated" future work.

    The generated network contains:

    - one automaton per resource, following Figure 4 (nondeterministic
      non-preemptive), Figure 4 + priority guards / Figure 6 (priority
      non-preemptive, the bus pattern) or Figure 5 (two-band fixed
      priority preemptive with the remaining-work variable [D]);
    - one automaton per scenario actor, following Figure 7 (a-d) and
      Figure 8, generating events into the first step's pending
      counter;
    - per-(scenario, step) pending counters [q_<scen>_<k>] — the
      paper's [rec], [setvolume], ... globals — incremented by the
      upstream completion and decremented when the resource claims the
      job, all moved along by the urgent [hurry!] greediness idiom;
    - when a measurement is requested, the measured scenario's actor is
      replaced by its measuring variant (Figure 9, generalized to
      arbitrary arrival models and to requirements that start at an
      intermediate step completion, like the case study's A2V): it
      nondeterministically tags one event, counts in-flight responses
      with [n]/[m], resets the observer clock at the window start and
      enters the committed [seen] location when the tagged response
      arrives.  The observer clock's extrapolation constant is raised
      to four times the uncontended window (at least 4): the first
      ceiling of {!Ita_mc.Wcrt.sup}, which the WCRT usually stays
      below. *)

open Ita_ta

type observer = {
  obs_clock : Guard.clock;  (** the measuring automaton's [y] *)
  seen : Ita_mc.Query.t;  (** "the measuring automaton is at [seen]" *)
}

type t = {
  net : Network.t;
  observer : observer option;
  sys : Sysmodel.t;
}

val generate : ?measure:string * Scenario.requirement -> Sysmodel.t -> t
(** [generate ~measure:(scenario_name, requirement) sys].  Without
    [measure], all actors are plain generators (useful for plain
    reachability / deadlock-style queries).  With it, the network's
    constant for [observer.obs_clock] is
    [max 4 (4 * Sysmodel.uncontended_us ...)] of the measured window,
    registered with {!Network.bump_clock_bound} (which also pins the
    clock active): {!Ita_mc.Wcrt.sup} starts its ceiling there.

    @raise Network.Invalid_model on inconsistent input. *)

val queue_var : t -> scenario:string -> step:int -> Expr.var
(** The pending counter of a step, for custom queries. *)
