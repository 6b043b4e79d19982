(** End-to-end analysis driver: architecture model in, worst-case
    response times out.

    {!wcrt} is the one WCRT policy, the paper's own.  It first explores
    the full zone graph in the caller's order (a sup-query over the
    observer clock at [seen], equivalent to the paper's binary search
    on Property 1 in a single run).  Only when the budget runs out
    does it run the same sup-query once more, depth-first and under
    the same budget: the paper's "structured testing" fallback for
    state spaces that explode (the "df" cells of Table 1).  The larger
    response the two runs observed is a sound WCRT lower bound. *)

open Ita_mc

type dimension = States | Seconds
(** The {!Reach.budget} dimension that ran out. *)

type outcome =
  | Exact_wcrt of int  (** microseconds; an exploration completed *)
  | Wcrt_lower_bound of { value : int; exhausted : dimension }
      (** microseconds; the budget ran out, and [value] is the larger
          response observed by the two runs *)
  | Unobserved of dimension
      (** the budget ran out before either run observed a response:
          nothing is known about the WCRT *)
  | No_response  (** the measured response never occurs *)
  | Unbounded
      (** the measured clock is unbounded at the goal ({!Wcrt.Sup_unbounded}) *)

type result = {
  outcome : outcome;
  explored : int;  (** symbolic states, summed over both runs *)
  elapsed : float;  (** wall-clock seconds, summed over both runs *)
  uncontended_us : int;
      (** interference-free duration of the measured window *)
  certified : (Ita_cert.Cert.stats, Ita_cert.Cert.failure) Stdlib.result option;
      (** [Some r] iff [~certify:true] produced an [Exact_wcrt] and the
          independent checker was run on its certificate; [None]
          otherwise. *)
}

val wcrt :
  ?order:Reach.order ->
  ?budget:Reach.budget ->
  ?domains:int ->
  ?certify:bool ->
  ?cert_out:string ->
  Sysmodel.t ->
  scenario:string ->
  requirement:string ->
  result
(** [wcrt sys ~scenario ~requirement] builds the measured network and
    extracts the WCRT with the policy above.  [?order] defaults to
    BFS; when it is already [Dfs] the depth-first rerun would repeat
    the first run and is skipped.  [?budget] (default
    {!Reach.no_budget}) applies to each run.  The measured clock's
    extrapolation ceiling starts where {!Gen.generate} puts the
    observer's constant, at four times the uncontended time.

    [?certify] (default [false]) re-validates an [Exact_wcrt] verdict
    from a sup with the independent certificate checker, in process,
    and reports the outcome in [certified].  [?cert_out] additionally
    (or instead) saves the certificate to the given path, where
    [tamc certify]-style offline validation can pick it up.  Bounds
    from cut-off runs carry no invariant to certify.
    @raise Not_found on unknown scenario/requirement names. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Table-style: "357.133" for exact values, ">= 400.000" for lower
    bounds, "?" when nothing was observed, "-" for no response,
    "unbounded". *)

type verdict = Met | Violated | Unknown

val deadline_verdict :
  deadline_us:int -> ?exact:int -> ?upper:int -> ?lower:int -> unit -> verdict
(** The one deadline rule, Property 1's strict form
    [A[] (seen -> y < C)], applied to what is known of a response
    time (microseconds): an [exact] value is [Met] iff it is below the
    deadline, else [Violated].  Without one, an [upper] bound below
    the deadline is [Met] and a [lower] bound at or above it is
    [Violated]; anything else is [Unknown]. *)

val outcome_verdict : deadline_us:int -> outcome -> verdict
(** {!deadline_verdict} of a {!wcrt} outcome: [Exact_wcrt] is an exact
    value, [Wcrt_lower_bound] a lower bound; [Unbounded] is
    [Violated], [Unobserved] and [No_response] are [Unknown]. *)

type budget_report = {
  scenario_name : string;
  requirement_name : string;
  budget_us : int;
  wcrt : outcome;
  verdict : verdict;
}

val check_budgets : Sysmodel.t -> budget_report list
(** The paper's framing — "does the product work, given a set of hard
    resource restrictions?" — as one call: analyze every requirement
    that declares a budget with {!wcrt}'s defaults (breadth-first, no
    state budget, so no outcome is a lower bound) and judge its outcome
    with {!outcome_verdict}. *)

val pp_budget_report : Format.formatter -> budget_report -> unit
