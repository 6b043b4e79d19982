(** Certificate emission: the bridge from the optimized exploration
    path to the independent checker's world.

    An {!Reach.snapshot} (or the one {!Wcrt.sup} surfaces) is
    translated entry by entry to original-model terms: discrete states
    and zones unmapped through the slice, and zones re-widened on the
    clocks active-clock reduction had pinned to [0] — the one
    normalization the naive checker could not reproduce.  Each entry
    keeps every zone the passed list stored for its state.

    Everything exploration-specific stays on this side of the fence;
    [Ita_cert.Cert.check] consumes only the plain data produced here. *)

open Ita_ta

val of_snapshot :
  index:int ->
  verdict:Ita_cert.Cert.verdict ->
  Reach.snapshot ->
  Ita_cert.Cert.query_cert
(** Build one query's certificate from a completed exploration.
    [verdict] must be [Unreachable] or [Sup] (with the {e original}
    clock index).  Entries come in the snapshot's sorted order and each
    entry's zones are sorted by [Dbm.compare], so at one domain the
    certificate is byte-identical for a given order; at several domains
    the passed list, and so the certificate, may hold different zones,
    and it still checks. *)

val of_witness :
  index:int -> Semantics.label list -> Ita_cert.Cert.query_cert
(** The certificate of a reachable verdict: the witness label sequence
    (already in original index space, as {!Reach.reach} returns it)
    under the trivial mask, replayed exactly by the checker. *)

val make : Network.t -> Ita_cert.Cert.query_cert list -> Ita_cert.Cert.t
(** Assemble the file-level certificate, fingerprinting the {e
    original} network. *)

val goal_of_query : Query.t -> Ita_cert.Cert.goal
(** The query's goal in the checker's (dependency-free) representation;
    the two types are structurally identical. *)
