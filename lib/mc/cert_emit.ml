(* Certificate emission: translate a completed exploration's snapshot
   into the original-model terms the independent checker consumes.

   This is the one place where explorer-side knowledge (the slice, the
   flow-refined LU tables, active-clock reduction) is allowed to shape
   the certificate; the checker never sees any of it — it receives
   plain states, zones and vectors and re-derives every obligation. *)

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

(* The per-state LU vectors in original clock space: merged members
   inherit their representative's bounds (their zones constrain them
   equal), removed clocks carry the -1 don't-care sentinel. *)
let unmap_lu sl snet st =
  let l', u' = Semantics.lu_bounds snet st in
  let n =
    Array.length (sl.Slice.original : Network.t).Network.clock_names
  in
  let l = Array.make n (-1) and u = Array.make n (-1) in
  l.(0) <- 0;
  u.(0) <- 0;
  for x = 1 to n - 1 do
    match Slice.map_clock sl x with
    | Some x' ->
        l.(x) <- l'.(x');
        u.(x) <- u'.(x')
    | None -> ()
  done;
  (l, u)

(* The passed list always prunes by zone inclusion, which is weaker
   than a◁LU — so a parallel schedule can store extra zones that an
   earlier-arriving sibling ◁LU-dominates, and the raw antichain
   content varies across domain counts.  The ◁LU-maximal subset is
   schedule-independent (◁LU is a simulation, so every run's passed
   list ◁LU-covers the same canonical zone set), dominated zones are
   redundant for every checker obligation, and mutually-similar pairs
   resolve to the first in the deterministic snapshot order — this is
   what makes invariant certificates byte-stable across domain
   counts. *)
let lu_maximal l u zones =
  let kept = ref [] in
  List.iter
    (fun z ->
      if not (List.exists (fun z' -> Dbm.le_lu l u z z') !kept) then
        kept := z :: List.filter (fun z' -> not (Dbm.le_lu l u z' z)) !kept)
    zones;
  List.sort Dbm.compare !kept

let entries_of_snapshot (snap : Reach.snapshot) : Cert.entry list =
  let sl = snap.Reach.snap_slice in
  let snet = snap.Reach.snap_net in
  List.map
    (fun (st, zones) ->
      let l, u = unmap_lu sl snet st in
      {
        Cert.st = Slice.unmap_state sl st;
        l;
        u;
        zones =
          lu_maximal l u
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
    merged = sl.Slice.merged;
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
    merged = [];
    entries = [];
  }

let make (net : Network.t) queries : Cert.t =
  { Cert.fingerprint = Cert.fingerprint net; queries }

let goal_of_query (q : Query.t) : Cert.goal =
  { Cert.comp_locs = q.Query.comp_locs; guard = q.Query.guard }
