(** End-to-end analysis driver: architecture model in, worst-case
    response times out.

    [Exhaustive] explores the full zone graph and returns the exact
    WCRT (a sup-query over the observer clock at [seen], equivalent to
    the paper's binary search on Property 1 but in a single run).
    [Structured_testing] is the paper's fallback for state spaces that
    explode (the "df" / "rdf" cells of Table 1): a budgeted
    depth-first or random-depth-first hunt for ever-larger response
    times, yielding a sound lower bound. *)

open Ita_mc

type method_ =
  | Exhaustive
  | Binary of { hi : int }  (** the paper's actual strategy *)
  | Structured_testing of {
      order : Reach.order;
      budget : Reach.budget;
      start : int;
      step : int;
    }

type outcome =
  | Exact_wcrt of int  (** microseconds; attained *)
  | Wcrt_lower_bound of int  (** microseconds; search was budgeted *)
  | No_response  (** the measured response never occurs *)

type result = {
  outcome : outcome;
  explored : int;
  elapsed : float;
  uncontended_us : int;
      (** interference-free duration of the measured window *)
  certified : (Ita_cert.Cert.stats, Ita_cert.Cert.failure) Stdlib.result option;
      (** [Some r] iff [~certify:true] produced an [Exact_wcrt] and the
          independent checker was run on its certificate; [None] for
          every other method/outcome combination. *)
}

val wcrt :
  ?method_:method_ ->
  ?order:Reach.order ->
  ?domains:int ->
  ?certify:bool ->
  ?cert_out:string ->
  Sysmodel.t ->
  scenario:string ->
  requirement:string ->
  result
(** [wcrt sys ~scenario ~requirement] builds the measured network and
    extracts the WCRT.  Default method is [Exhaustive] with BFS.

    [?certify] (default [false]) re-validates an [Exact_wcrt] verdict
    with the independent certificate checker, in process, and reports
    the outcome in [certified].  [?cert_out] additionally (or instead)
    saves the certificate to the given path, where [tamc certify]-style
    offline validation can pick it up.  Both only apply to the
    [Exhaustive] method — bounds from incomplete searches carry no
    invariant to certify.
    @raise Not_found on unknown scenario/requirement names. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Table-style: "357.133" for exact values, "> 400.000" for lower
    bounds, "-" for no response. *)

type verdict = Met | Violated | Unknown

type budget_report = {
  scenario_name : string;
  requirement_name : string;
  budget_us : int;
  wcrt : outcome;
  verdict : verdict;
}

val check_budgets :
  ?method_:method_ ->
  ?order:Ita_mc.Reach.order ->
  ?domains:int ->
  Sysmodel.t ->
  budget_report list
(** The paper's framing — "does the product work, given a set of hard
    resource restrictions?" — as one call: analyze every requirement
    that declares a budget and compare.  A lower bound at or above the
    budget is already a [Violated]; a lower bound below it proves
    nothing, hence [Unknown]. *)

val pp_budget_report : Format.formatter -> budget_report -> unit
