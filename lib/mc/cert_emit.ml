(* Certificate emission: turn a completed exploration's snapshot into
   the plain states and zones the independent checker consumes.

   This is the one place where explorer-side knowledge (active-clock
   reduction) is allowed to shape the certificate; the checker never
   sees any of it and re-derives every obligation. *)

open Ita_ta
module Dbm = Ita_dbm.Dbm
module Cert = Ita_cert.Cert

(* Stored zones were normalized under active-clock reduction: clocks
   inactive at the entry's locations are pinned to 0, while the naive
   checker's successors leave them running.  Freeing them is sound —
   an inactive clock stays inactive until some edge resets it, so the
   freed antichain is still inductive — and necessary, or consecution
   would reject every certificate, the reduction being always on.  The
   query's clocks are pinned always-active, so judgment bounds are
   never weakened. *)
let free_inactive (net : Network.t) (st : Semantics.state) z =
  let z = Dbm.copy z in
  for x = 1 to Array.length net.Network.clock_names - 1 do
    if not (Network.live_clock net st.Semantics.locs x) then Dbm.free z x
  done;
  z

(* Extra+LU only widens, and the passed list drops a zone only for one
   that includes it, so every exact successor of a stored zone is
   included in a stored zone: plain inclusion is all the checker needs.
   Freeing can reorder the snapshot's sorted antichain, so the zones
   are sorted again. *)
let of_snapshot ~index ~(verdict : Cert.verdict) (snap : Reach.snapshot) :
    Cert.query_cert =
  let net = snap.Reach.snap_net in
  {
    Cert.index;
    verdict;
    entries =
      List.map
        (fun (st, zones) ->
          let zones = List.map (free_inactive net st) zones in
          { Cert.st; zones = List.sort Dbm.compare zones })
        snap.Reach.snap_passed;
  }

(* A reachable verdict certifies by replay, not by invariant: only the
   witness labels travel. *)
let of_witness ~index (labels : Semantics.label list) : Cert.query_cert =
  { Cert.index; verdict = Cert.Reachable labels; entries = [] }

let make (net : Network.t) queries : Cert.t =
  { Cert.fingerprint = Cert.fingerprint net; queries }

let goal_of_query (q : Query.t) : Cert.goal =
  { Cert.comp_locs = q.Query.comp_locs; guard = q.Query.guard }
