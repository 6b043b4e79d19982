(** One analysis job: a candidate architecture, a technique, a
    measured requirement, a budget.  The uniform interface under
    which the four engines of the paper's Table 2 — model checking,
    simulation, SymTA/S-style busy windows, MPA/RTC — become
    interchangeable workers of a sweep.

    A job is self-contained and side-effect free, so it can run in a
    forked worker and its result can be memoized on disk keyed by the
    spec. *)

open Ita_core

type technique = Mc | Sim | Symta | Rtc

val all_techniques : technique list
val technique_name : technique -> string
val technique_of_string : string -> (technique, string) result

type budget = {
  mc_states : int option;
      (** state cap for each of {!Ita_core.Analyze.wcrt}'s runs *)
  mc_seconds : float option;  (** wall-clock cap for each run *)
  mc_certify : bool;
      (** re-validate every exact mc verdict with the independent
          certificate checker before it enters the results; a
          rejected certificate demotes the cell to [Failed].  Part of
          the cache key — certified and uncertified numbers are not
          interchangeable. *)
  sim_runs : int;  (** simulation seeds *)
  sim_horizon_us : int;  (** simulated time per seed *)
}

val default_budget : budget
(** Unlimited model checking under Extra+LU, with the engine's
    always-on query-directed slicing, flow-refined bounds and
    active-clock reduction; 5 simulation seeds of 30 s each. *)

type spec = {
  sys : Sysmodel.t;
  technique : technique;
  scenario : string;
  requirement : string;
  budget : budget;
}

(** What kind of number a technique produced — the paper's Table 2
    distinction.  [Exact] comes from exhaustive model checking;
    [Lower] from simulation (a witnessed response) or from a budgeted
    {!Ita_core.Analyze.wcrt} (the larger response its exhaustive run
    and depth-first rerun observed before the budget ran out); [Upper]
    from the conservative analytic techniques. *)
type measure =
  | Exact of int  (** microseconds; the true WCRT *)
  | Lower of int  (** microseconds; a sound lower bound *)
  | Upper of int  (** microseconds; a sound upper bound *)
  | Unbounded  (** mc: the measured clock is unbounded at the goal *)
  | No_response  (** the measured window never completes *)
  | Failed of string  (** diverged / budget exhausted with nothing seen *)

val measure_us : measure -> int option
(** The comparable value of [Exact]/[Lower]/[Upper]; [None] otherwise. *)

type result = { measure : measure; elapsed : float; explored : int }
(** [explored]: symbolic states (mc), samples (sim), fixpoint
    iterations (symta/rtc). *)

val run : spec -> result
(** Execute the job in the calling process.  Never raises on analysis
    failure ([Failed] instead); unknown scenario/requirement names
    still raise [Not_found] — those are caller bugs, not candidate
    properties. *)

val pp_measure : Format.formatter -> measure -> unit
(** Table-style: "79.075" exact, ">=79.075" lower, "<=81.200" upper. *)
