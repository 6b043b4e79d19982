(** Difference Bound Matrices: the canonical symbolic representation of
    clock zones used by zone-based timed-automata model checkers.

    A DBM over [n] clocks is an [(n+1) x (n+1)] matrix of {!Bound.t}
    where entry [(i, j)] constrains [x_i - x_j]; index [0] is the
    constant reference clock whose value is always [0].  All operations
    below keep the matrix in canonical (all-pairs-shortest-path closed)
    form, so inclusion and equality are pointwise.

    DBMs are mutable for performance; operations that logically produce
    a new zone mutate in place unless documented otherwise.  Use
    {!copy} before a destructive call when the original is still
    needed. *)

(** Bounds of difference constraints, i.e. the right-hand sides of
    [x - y <= c] and [x - y < c], plus the absent constraint [+oo].

    Bounds are encoded in a single native [int] so that DBMs are flat
    integer arrays: the encoding of [(c, <=)] is [2c + 1], the encoding of
    [(c, <)] is [2c], and [+oo] is [max_int].  The encoding is monotone:
    the natural integer order on encoded bounds coincides with the
    strength order on constraints ([b1 <= b2] iff the constraint [b1] is
    at least as tight as [b2]).

    The encoding is defined in the DBM implementation itself, next to
    the loops that combine encoded entries, so that those loops inline
    the arithmetic even when modules are compiled [-opaque]; the library
    re-exports this module as [Ita_dbm.Bound]. *)
module Bound : sig
  type t = private int

  val infinity : t
  (** The absent constraint [x - y < +oo]. *)

  val le : int -> t
  (** [le c] is the non-strict bound [(c, <=)]. *)

  val lt : int -> t
  (** [lt c] is the strict bound [(c, <)]. *)

  val zero_le : t
  (** [le 0], the most frequent bound. *)

  val value : t -> int
  (** [value b] is the finite constant of [b].  Meaningless on
      {!infinity}; callers must check {!is_infinity} first. *)

  val is_strict : t -> bool
  (** [is_strict b] is [true] on [lt c] bounds.  [infinity] is strict. *)

  val is_infinity : t -> bool

  val add : t -> t -> t
  (** [add b1 b2] is the bound of the composed constraint: constants add,
      and the sum is strict iff either argument is strict.  Adding
      {!infinity} yields {!infinity}. *)

  val min : t -> t -> t
  (** Tighter of two bounds. *)

  val compare : t -> t -> int
  (** Strength order; [compare b1 b2 < 0] means [b1] is strictly tighter. *)

  val lt_bound : t -> t -> bool
  (** [lt_bound b1 b2] is [compare b1 b2 < 0]. *)

  val negate_weak : t -> t
  (** [negate_weak (c, ~)] is [(-c, ~')] where the strictness flips:
      the complement of [x - y <= c] is [y - x < -c] and vice versa.
      Undefined on {!infinity}. *)

  val sat : int -> t -> bool
  (** [sat d b] tests whether the concrete difference [d] satisfies the
      constraint [b], i.e. [d < c] or [d <= c]. *)

  val pp : Format.formatter -> t -> unit
end

type t

val dim : t -> int
(** Number of rows/columns, i.e. number of clocks + 1. *)

val zero : int -> t
(** [zero n] is the zone over [n] clocks where every clock equals [0]
    (the initial zone of a timed automaton). *)

val universal : int -> t
(** [universal n] is the zone where every clock ranges over [0, +oo). *)

val copy : t -> t

val is_empty : t -> bool
(** A canonical DBM is empty iff its diagonal got negative; all
    mutators below re-canonicalize, so this is O(1). *)

val get : t -> int -> int -> Bound.t
(** [get z i j] is the canonical bound on [x_i - x_j]. *)

val up : t -> unit
(** Time elapse (UPPAAL's "up"): remove all upper bounds on clocks,
    keeping differences.  Preserves canonicity. *)

val constrain : t -> int -> int -> Bound.t -> unit
(** [constrain z i j b] intersects with [x_i - x_j (< or <=) c].
    Re-canonicalizes incrementally in O(dim^2).  May empty the zone. *)

val reset : t -> int -> int -> unit
(** [reset z i v] sets clock [i] to the non-negative constant [v]. *)

val free : t -> int -> unit
(** [free z i] removes all constraints on clock [i] except [x_i >= 0]. *)

val intersect : t -> t -> unit
(** [intersect z z'] narrows [z] to the intersection with [z']. *)

val subset : t -> t -> bool
(** [subset z z'] iff every valuation of [z] belongs to [z'].  Both
    arguments must be canonical (which this module guarantees). *)

val equal : t -> t -> bool
val hash : t -> int

val compare : t -> t -> int
(** Total order on zones: dimension first, every empty zone below every
    non-empty one, then lexicographic on the encoded entries.  The
    bound encoding is value-monotone and process-independent, so the
    order is stable across runs — certificate emission sorts with it,
    so the same zones serialize in the same order whatever the
    exploration schedule. *)

val to_encoded : t -> int * int array
(** [(dim, entries)] with [entries] a fresh flat row-major copy of the
    encoded {!Bound.t} matrix; the exchange format of certificates. *)

val of_encoded : int -> int array -> t
(** [of_encoded dim entries] rebuilds a zone from {!to_encoded} output.
    The entries are {e not} trusted to be canonical: the result is
    re-closed, so the pointwise operations are sound on it even when
    the producer lied.  @raise Invalid_argument on a length/dimension
    mismatch. *)

val extrapolate : t -> int array -> unit
(** [extrapolate z k] applies classical maximal-constant abstraction
    (ExtraM): bounds larger than [k.(i)] become [+oo] and lower bounds
    beyond [-k.(j)] are relaxed to [< -k.(j)].  [k.(0)] must be [0].
    Sound for diagonal-free timed automata; the result is
    re-canonicalized. *)

val extrapolate_lu : t -> int array -> int array -> unit
(** [extrapolate_lu z l u] applies Extra+LU — the coarser abstraction
    based on separate lower/upper maximal constants (Behrmann et al.;
    Bouyer et al.'s survey "Zone-based verification of timed automata:
    extrapolations, simulations and what next?", 2022) — in place, with
    the same re-canonicalizing contract as {!extrapolate}.  [l.(i)] is
    the largest constant any lower-bound guard ([x_i >(=) c]) compares
    [x_i] against, [u.(i)] the same for upper-bound guards; both must
    have index [0] equal to [0].  Includes the diagonal-aware
    refinement: bounds are also dropped when the zone as a whole lies
    strictly above [l.(i)] (resp. [u.(j)]).  Sound only for
    diagonal-free automata; strictly coarser than (or equal to)
    {!extrapolate} with [k = max l u]. *)

val le_lu : int array -> int array -> t -> t -> bool
(** [le_lu l u z z'] decides [z ⊆ a◁LU(z')] — the LU-simulation
    subsumption on {e unextrapolated} zones (Behrmann et al.; Bouyer et
    al.'s survey, 2022).  [l]/[u] are per-clock lower/upper maximal
    guard constants with index [0] equal to [0], exactly as for
    {!extrapolate_lu}.  The test is per-entry over both canonical
    arguments, mutates nothing and allocates nothing.  It is reflexive
    and transitive, implies language inclusion of the corresponding
    symbolic states, and is coarser than {!subset} after
    {!extrapolate_lu}: whenever [subset (extrapolate_lu z)
    (extrapolate_lu z')] holds on copies, [le_lu l u z z'] holds on the
    originals.  Empty [z] is below everything; nothing non-empty is
    below an empty [z'].  No production code calls it: the explorer
    and the certificate checker both cover by {!subset}.  It stays
    for test_dbm's properties and the bench/perf kernel replay. *)

val sup : t -> int -> Bound.t
(** [sup z i] is the least upper bound of clock [i] over the zone
    ([Bound.infinity] when unbounded). *)

val inf : t -> int -> Bound.t
(** [inf z i] is the bound on [-x_i], i.e. [(c, ~)] means
    [x_i >(=) -c]; the greatest lower bound of clock [i] is [-c]. *)

val satisfies : t -> int array -> bool
(** [satisfies z v] tests membership of the concrete valuation [v]
    (with [v.(0) = 0]); used as a testing oracle. *)

val delay_ordered : t -> int array -> int -> int array option
(** [delay_ordered z v d] is [Some (v + d)] when delaying the valuation
    [v] by [d] stays in [z], [None] otherwise; testing helper. *)

val pp : Format.formatter -> t -> unit
(** Human-readable conjunction of the non-trivial constraints. *)

(** {2 Rows}

    A compact, lossless form for zones whose clocks outside a known set
    were all reset to [0], as active-clock reduction leaves them: such
    a clock's row is row 0 and its column is column 0, so the entries
    among the reference clock and the live clocks determine the rest.
    The explorer's passed list keeps its zones as rows. *)

val to_row : t -> int array -> int array
(** [to_row z live] is [z]'s row over the clocks [live], listed in
    increasing order; every clock outside [live] must have been reset
    to [0] in [z].  Word 0 is [0] and left to the caller: no function
    here reads it.  Then come the box, [(x, 0)] and [(0, x)] for each
    live [x] in turn, the entries [(x, y)] for every ordered pair of
    distinct live clocks, and last [(0, 0)], [(<=, 0)] on every
    non-empty zone.  The row of an empty zone holds [min_int] after
    word 0. *)

val of_row : int -> int array -> int array -> t
(** [of_row n live row] decodes a {!to_row} row over [live] into a zone
    over [n] clocks, with every clock outside [live] reset to [0]: a
    fresh zone, entry for entry the one projected (any empty zone when
    that one was empty).  @raise Invalid_argument when [row]'s length
    does not fit [live]. *)

type row_order =
  | Same  (** both zones are equal *)
  | Below  (** the first zone is strictly included in the second *)
  | Above  (** the second zone is strictly included in the first *)
  | Apart  (** neither includes the other *)

val row_compare : int array -> int array -> row_order
(** [row_compare r r'] decides both inclusions between the zones of two
    rows over the same live clocks in one pass over their entries:
    inclusion is the entrywise order, as for {!subset} on the decoded
    zones.  It reads the box first and stops once both inclusions
    fail.  @raise Invalid_argument when the rows differ in length. *)
