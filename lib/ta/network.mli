(** Networks of timed automata: the parallel composition the checker
    explores.

    A network owns the global clock set (index [0] is the reference
    clock), the bounded integer variables, the channels and the
    component automata.  {!Builder} is the only way to construct one;
    it performs the static checks that keep the symbolic semantics
    sound:

    - edges synchronizing on an urgent channel carry no clock guards;
    - receiving edges of broadcast channels carry no clock guards;
    - guards are diagonal-free by construction ({!Guard.t}).

    [build] keeps to syntactic facts: it derives the per-clock maximal
    constants [k] from every guard, invariant and reset in the model,
    starts every location's L/U row at [k] and marks every clock
    active everywhere.  The per-location L/U and activity tables the
    engine explores with come from one analysis,
    [Ita_analysis.Flow.refine_lu], which a query runs once on the
    network it explores.  Queries that compare clocks against further
    constants must register them with {!bump_clock_bound}. *)

type t = {
  automata : Automaton.t array;
  clock_names : string array;
  var_names : string array;
  var_ranges : (int * int) array;
  var_init : int array;
  channels : Channel.t array;
  k : int array;
      (** classical maximal constants (ExtraM), [k.(0) = 0]: the
          engine extrapolates with the L/U tables below; [k] feeds the
          test suite's independent ExtraM reference explorer *)
  lbase : int array;
      (** per-clock global floor of the lower-bound constants L; query
          constants registered with {!bump_clock_bound} land here *)
  ubase : int array;  (** same for the upper-bound constants U *)
  lloc : int array array array;
      (** [lloc.(comp).(loc).(clock)]: an upper bound on every constant
          a lower-bound guard can still compare the clock against
          before its next reset, from this component location on; the
          per-state L bound is the max over components, then over
          {!lbase}.  Feeds Extra+LU.  A built network carries [k] in
          every row, which is sound but coarse;
          [Ita_analysis.Flow.refine_lu] replaces the rows with the
          per-location backward fixpoint over the live control flow.
          Rows may be shared: never mutate them. *)
  uloc : int array array array;  (** same for upper-bound guards/invariants *)
  active : bool array array array;
      (** [active.(comp).(loc).(clock)]: location-based clock activity
          (Daws-Yovine): a clock is active at a location when some path
          from it can test the clock before resetting it.  The checker
          normalizes clocks that are not {!live_clock} to 0, collapsing
          zones that differ only in dead clock values.  A built network
          marks every clock active everywhere, which is sound but
          unreduced; [Ita_analysis.Flow.refine_lu] computes the rows
          over the live control flow.  Rows may be shared: never mutate
          them. *)
  pinned : bool array;
      (** clocks observed from outside the model (query clocks); always
          treated as active *)
}

exception Invalid_model of string

val n_clocks : t -> int
(** Number of real clocks (excluding the reference clock). *)

val n_components : t -> int

val bump_clock_bound : t -> Guard.clock -> int -> t
(** [bump_clock_bound net x c] returns a network whose extrapolation
    constants for [x] (classical [k] and both LU floors) are at least
    [c] and which pins [x] as always active (queries observe it);
    shares everything else. *)

val live_clock : t -> int array -> Guard.clock -> bool
(** [live_clock net locs x]: [x] is pinned, or active at the location
    of some component in the location vector [locs].  A clock that is
    not live can hold any value without changing a future guard or
    invariant. *)

val component_index : t -> string -> int
(** @raise Not_found on unknown automaton name. *)

val clock_index : t -> string -> Guard.clock
val var_index : t -> string -> Expr.var

val pp_locs : t -> Format.formatter -> int array -> unit
(** Print a location vector as [RAD.idle | BUS.sending ...]. *)

module Builder : sig
  type network = t
  type b

  val create : unit -> b

  val clock : b -> string -> Guard.clock
  (** Declare a clock; names must be unique. *)

  val int_var : b -> string -> lo:int -> hi:int -> init:int -> Expr.var
  val channel : b -> string -> Channel.kind -> urgent:bool -> Channel.id
  val add_automaton : b -> Automaton.t -> unit

  val build : ?validate:bool -> b -> network
  (** @raise Invalid_model when a static check fails.  [~validate:false]
      skips the urgent/broadcast clock-guard checks and is meant for
      the static analyzer only ({!Ita_analysis.Lint} reports the same
      conditions as error diagnostics): a network built that way must
      not be handed to the symbolic semantics. *)
end
