(** Abstract-interpretation dataflow engine over timed-automata
    networks.

    A generic round-based fixpoint solver ({!Fixpoint}) instantiated
    twice:

    - a forward {e interval} analysis over the bounded integer
      variables, per (component, location), with guard refinement and
      cross-process propagation across channel synchronizations
      ({!analyze});
    - a backward per-location {e L/U clock-bound} and clock-activity
      analysis over the live part of the control-flow graph, with
      guard/reset constants evaluated under the refined intervals
      ({!refine_lu}).

    Concurrency is sound by construction: a variable written by more
    than one component is never tracked flow-sensitively — reads go
    through the flow-insensitive global range {!global_ranges}, the
    hull of the initial value and every assigned value anywhere
    (clamped to the declared range, which [Update.set_checked]
    enforces at runtime). *)

open Ita_ta

(** Generic join-semilattice fixpoint solver over int-indexed nodes,
    with optional threshold widening for termination on tall
    lattices. *)
module Fixpoint : sig
  type 'a t

  val create :
    n:int ->
    bottom:'a ->
    equal:('a -> 'a -> bool) ->
    join:('a -> 'a -> 'a) ->
    ?widen:('a -> 'a -> 'a) ->
    unit ->
    'a t
  (** [widen old joined] is applied instead of plain join once a node
      has changed 8 times. *)

  val get : 'a t -> int -> 'a

  val update : 'a t -> int -> 'a -> unit
  (** Join [v] into node [i]; marks the solver dirty on growth. *)

  val touch : 'a t -> unit
  (** Record that solver-external state grew, forcing another sweep. *)

  val solve : 'a t -> (unit -> unit) -> unit
  (** [solve s sweep] runs [sweep] until a whole pass leaves every
      node (and all touched external state) unchanged. *)
end

type dead_reason =
  | Unreachable_source  (** no reachable valuation enters the source *)
  | Unsat_guard  (** guard unsatisfiable under the source intervals *)
  | No_partner  (** sync with no co-enabled partner edge *)

type edge_status = Live | Dead of dead_reason

type race = {
  race_chan : Channel.id;
  race_writer : int * int;  (** sender (component, edge index) *)
  race_other : int * int;  (** receiver (component, edge index) *)
  race_var : Expr.var;
}
(** A shared-variable write-write collision on a co-enabled
    synchronizing edge pair: participants update sender-first, so the
    receiver's assignment silently wins. *)

type t

val analyze : Network.t -> t
(** Run the interval fixpoint to completion. *)

val reachable : t -> int -> int -> bool
(** [reachable fa comp loc] — does any abstract valuation reach
    [loc]?  Over-approximate: [false] is definite. *)

val env_at : t -> int -> int -> (int * int) array option
(** Merged per-variable interval at [(comp, loc)]: flow-sensitive for
    variables only [comp] writes, the global range otherwise.  [None]
    iff the location is flow-unreachable. *)

val global_ranges : t -> (int * int) array
(** Flow-insensitive hull of initial + all assigned values per
    variable, clamped to the declared range.  Never wider than the
    declared range, and exact ([init, init]) for never-written
    variables. *)

val stable_var : t -> int -> Expr.var -> bool
(** [true] iff no component other than [comp] ever assigns the
    variable, i.e. its per-location interval is flow-sensitive. *)

val edge_status : t -> int -> int -> edge_status

val guard_data_trivial : t -> int -> int -> bool
(** The edge is live, its data guard is syntactically non-[True], yet
    it evaluates to true under every reachable source valuation. *)

val races : t -> race list

val refine : (int * int) array -> Expr.bexp -> (int * int) array option
(** Tighten intervals by the conjuncts of a data guard; [None] when
    the guard is definitely unsatisfiable. *)

val refine_lu : t -> Network.t -> Network.t
(** The one source of the per-location L/U clock bounds and of clock
    activity: one backward fixpoint over the live CFG with guard/reset
    constants evaluated under the inferred intervals.  Returns the
    network with these [lloc]/[uloc]/[active] tables in place of the
    builder's (which are [k] in every L/U row and all-true activity
    rows); no entry exceeds its clock's [k].  A clock is active at a
    location when a live path from it tests the clock, through a guard
    or an invariant, before resetting it.  [k], [pinned] and the
    [lbase]/[ubase] floors are untouched.  [fa] must be the analysis
    of the same network. *)

val refine_network : Network.t -> Network.t
(** [refine_lu (analyze net) net]. *)

val pp :
  ?resolve:
    ([ `Automaton of int | `Location of int * int ] -> string option) ->
  t ->
  Format.formatter ->
  unit ->
  unit
(** Render per-location intervals (with optional source positions) and
    the global ranges. *)
