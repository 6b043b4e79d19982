(** Symbolic (zone-graph) semantics of a network, following UPPAAL:

    - a symbolic configuration is [(location vector, integer valuation,
      zone)], with the zone already delay-closed and constrained by the
      active invariants;
    - delay is forbidden while some component is in an urgent or
      committed location, or some urgent-channel synchronization is
      enabled (such edges carry no clock guards, so enabledness only
      depends on the discrete part);
    - while some component is in a committed location, only transitions
      leaving a committed location may fire;
    - after each discrete step the zone is delay-closed (unless delay
      is forbidden), re-constrained by invariants and extrapolated with
      Extra+LU over the per-location lower/upper bounds
      ([Network.lloc]/[uloc] with the [Network.floor] floor, see
      {!lu_bounds}) — coarser than classical maximal-constant
      extrapolation ([Network.k]), with identical reachability verdicts
      on the diagonal-free automata this library builds;
    - active-clock reduction (Daws–Yovine) is always on: delay-closure
      pins every clock that is not {!Network.live_clock} in the current
      location vector to [0], so zones differing only in dead clock
      values coincide.  This is sound: an inactive clock is reset
      before it is next tested, hence its value cannot influence any
      future guard or invariant.  The activity comes from the
      network's [Network.active] rows: a built network marks every
      clock active, so the reduction normalizes nothing until
      [Ita_analysis.Flow.refine_lu] has computed them.  The unreduced
      zone graph, the differential-testing oracle, is the one of the
      same network with every clock pinned
      ([Network.bump_clock_bound net x 0] for each clock [x]): a bound
      of [0] changes no constant, and pinned clocks are never
      normalized. *)

module Dbm = Ita_dbm.Dbm

type state = { locs : int array; env : int array }
(** The discrete part of a configuration. *)

type config = { state : state; zone : Dbm.t }

type label =
  | Internal of { comp : int; edge : int }
  | Sync of {
      chan : Channel.id;
      sender : int * int;  (** component, edge *)
      receivers : (int * int) list;
    }

val state_equal : state -> state -> bool
val state_hash : state -> int

val lu_bounds : Network.t -> state -> int array * int array
(** [lu_bounds net st] resolves the per-clock Extra+LU constants in
    discrete state [st]: per-location maxima over the components
    ([Network.lloc]/[uloc]), floored by [Network.floor].  Freshly
    allocated; index [0] is [0].  These are the vectors the Extra+LU
    extrapolation reads. *)

val initial : Network.t -> config
(** The initial configuration, delay-closed and extrapolated. *)

val delay_allowed : Network.t -> state -> bool

val successors : Network.t -> config -> (label * config) list
(** All symbolic successors, in deterministic order.  Configurations
    with empty zones are filtered out.

    Domain-safety contract: [initial] and [successors] are pure — they
    read the (immutable) network, never mutate the input configuration,
    and return freshly allocated zones that share no mutable state with
    the input.  The parallel exploration engine
    ([Ita_mc.Reach] with [domains > 1]) relies on this to call them
    concurrently from several domains without synchronisation; any
    future caching added here must be domain-safe.

    @raise Update.Out_of_range on a
    variable-range violation (a modeling error). *)

val zone_of_goal :
  Network.t -> config -> Guard.t -> comp_locs:(int * int) list -> Dbm.t option
(** [zone_of_goal net c g ~comp_locs] is [Some z] when configuration
    [c] intersects the goal "components are at the given locations and
    [g] holds", where [z] is that non-empty intersection; [None]
    otherwise.  Used by reachability queries. *)

val pp_label : Network.t -> Format.formatter -> label -> unit
val pp_state : Network.t -> Format.formatter -> state -> unit
