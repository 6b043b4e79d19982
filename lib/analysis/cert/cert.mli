(** Verdict certificates and their independent checker.

    Every verdict the optimized engine produces can be accompanied by a
    certificate that proves it without trusting the engine:

    - {b unreachable} and {b sup} verdicts carry the final passed-list
      antichain — per discrete state its stored zones — translated back
      to the original pre-slicing model.  The checker verifies that
      their union is an inductive invariant ({e initiation} +
      {e consecution}) that implies the verdict ({e judgment});
    - {b reachable} verdicts carry the witness label sequence, replayed
      with exact successor computation.

    The checker is deliberately naive: {!Reference} semantics, plain
    DBM operations, and coverage by [Dbm.subset] as the only primitive
    shared with the exploration path.  Its dune library declares
    dependencies on [ita_dbm] and [ita_ta] only — no interning,
    packing, slicing or sharding code can leak into the trust base. *)

open Ita_ta
module Dbm = Ita_dbm.Dbm

val version : int
(** On-disk format version; bumped on any incompatible change. *)

type goal = { comp_locs : (int * int) list; guard : Guard.t }
(** What the certified query asks about, in original model terms:
    required (component, location) pairs plus a guard over data
    variables and clocks.  Same shape as [Ita_mc.Query.t], duplicated
    here so the checker does not depend on [ita_mc]. *)

type sup_kind = Attained | Approached
    (** Whether the certified supremum is reached by a run ([<=]) or
        only approached in the limit ([<]). *)

type verdict =
  | Unreachable
  | Sup of { clock : Guard.clock; value : int; kind : sup_kind }
  | Reachable of Semantics.label list

type entry = { st : Semantics.state; zones : Dbm.t list }
(** One antichain node: a discrete state and the zones stored for it,
    whose union must include every valuation reachable there.  The
    engine's zones are Extra+LU extrapolated. *)

type query_cert = {
  index : int;  (** position of the query in the source file *)
  verdict : verdict;
  frozen_comps : int list;
  removed_clocks : int list;
  frozen_vars : int list;
  entries : entry list;
}

type t = { fingerprint : int; queries : query_cert list }

type obligation =
  | Format  (** unparsable or structurally ill-formed certificate *)
  | Fingerprint  (** certificate was produced for a different model *)
  | Mask  (** the declared slice mask is not provably harmless *)
  | Initiation  (** initial symbolic state not covered *)
  | Consecution  (** some successor escapes the antichain *)
  | Judgment  (** the invariant does not imply the claimed verdict *)
  | Witness  (** a reachable-verdict trace does not replay *)

type failure = { obligation : obligation; message : string }

type stats = { checked_states : int; checked_zones : int }
(** Work performed by a successful check; [checked_zones] counts
    delay/discrete successor computations. *)

val obligation_name : obligation -> string
(** Kebab-free lowercase name, stable for [--json] output. *)

val exit_code : obligation -> int
(** Process exit code [tamc certify] uses for a failed obligation
    (3-9); [0] is success, [1]/[2] stay usage and I/O errors. *)

val fingerprint : Network.t -> int
(** Structural hash of the elaborated network, stored in certificates
    and compared by [tamc certify] before checking. *)

val to_string : t -> string
(** Serialize to the versioned line-based text format. *)

val save : string -> t -> unit
(** Write {!to_string} output to a file. *)

val parse : string -> (t, failure) result
(** Parse the text format; failures carry the {!Format} obligation.
    Zones are rebuilt with [Dbm.of_encoded], i.e. re-closed rather than
    trusted. *)

val load : string -> (t, failure) result
(** Read and {!parse} a certificate file. *)

val check : Network.t -> goal:goal -> query_cert -> (stats, failure) result
(** Verify one query's certificate against the (re-elaborated, original)
    network.  For invariant verdicts this validates the mask and the
    stored antichain, then discharges initiation (the initial zone is
    included in a stored zone), the verdict judgment and consecution
    (the exact delay and discrete successors of every stored zone are
    included in stored zones of their discrete states).  For reachable
    verdicts it replays the witness exactly.  Accepts only certificates
    that prove their verdict, regardless of producer. *)
