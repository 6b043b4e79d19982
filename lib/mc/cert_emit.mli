(** Certificate emission: the bridge from the optimized exploration
    path to the independent checker's world.

    An entry of the certificate is a {!Reach.snapshot} entry — a
    discrete state and every zone the passed list stored for it — with
    the clocks active-clock reduction had pinned to [0] freed (the one
    normalization the naive checker could not reproduce) and its zones
    sorted by [Dbm.compare].  States, labels and zones are in the
    query network's own indices.

    Everything exploration-specific stays on this side of the fence;
    [Ita_cert.Cert.check] consumes only the plain data produced here. *)

open Ita_ta

val of_snapshot :
  index:int ->
  verdict:Ita_cert.Cert.verdict ->
  Reach.snapshot ->
  Ita_cert.Cert.query_cert
(** Build one query's certificate from a completed exploration.
    [verdict] must be [Unreachable] or [Sup].  Entries come in the
    snapshot's sorted order and each entry's zones are sorted by
    [Dbm.compare], so at one domain the certificate is byte-identical
    for a given order; at several domains the passed list, and so the
    certificate, may hold different zones, and it still checks. *)

val of_witness :
  index:int -> Semantics.label list -> Ita_cert.Cert.query_cert
(** The certificate of a reachable verdict: the witness label sequence
    {!Reach.reach} returns, replayed exactly by the checker. *)

val make : Network.t -> Ita_cert.Cert.query_cert list -> Ita_cert.Cert.t
(** Assemble the file-level certificate, fingerprinting the network. *)

val goal_of_query : Query.t -> Ita_cert.Cert.goal
(** The query's goal in the checker's (dependency-free) representation;
    the two types are structurally identical. *)
