(* Certificate emission: translate a completed exploration's snapshot
   into the original-model terms the independent checker consumes.

   This is the one place where explorer-side knowledge (the slice,
   active-clock reduction) is allowed to shape the certificate; the
   checker never sees any of it — it receives plain states and zones
   and re-derives every obligation. *)

open Ita_ta
module Dbm = Ita_dbm.Dbm
module Slice = Ita_analysis.Slice
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
   Freeing and unmapping can reorder the snapshot's sorted antichain,
   so the zones are sorted again. *)
let entries_of_snapshot (snap : Reach.snapshot) : Cert.entry list =
  let sl = snap.Reach.snap_slice in
  let snet = snap.Reach.snap_net in
  List.map
    (fun (st, zones) ->
      {
        Cert.st = Slice.unmap_state sl st;
        zones =
          List.sort Dbm.compare
            (List.map
               (fun z -> Slice.unmap_zone sl (free_inactive snet st z))
               zones);
      })
    snap.Reach.snap_passed

let of_snapshot ~index ~(verdict : Cert.verdict) (snap : Reach.snapshot) :
    Cert.query_cert =
  let sl = snap.Reach.snap_slice in
  {
    Cert.index;
    verdict;
    frozen_comps = sl.Slice.removed_comps;
    removed_clocks = sl.Slice.removed_clocks;
    frozen_vars = sl.Slice.removed_vars;
    entries = entries_of_snapshot snap;
  }

(* A reachable verdict certifies by replay, not by invariant: only the
   witness labels travel (already translated to original index space by
   [Reach.reach]), with the trivial mask. *)
let of_witness ~index (labels : Semantics.label list) : Cert.query_cert =
  {
    Cert.index;
    verdict = Cert.Reachable labels;
    frozen_comps = [];
    removed_clocks = [];
    frozen_vars = [];
    entries = [];
  }

let make (net : Network.t) queries : Cert.t =
  { Cert.fingerprint = Cert.fingerprint net; queries }

let goal_of_query (q : Query.t) : Cert.goal =
  { Cert.comp_locs = q.Query.comp_locs; guard = q.Query.guard }
