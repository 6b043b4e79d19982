(* Small hand-built networks with known answers, shared by the ta and
   mc test suites. *)

open Ita_ta

let tt = Guard.tt

let loc ?(kind = Automaton.Normal) ?(invariant = tt) loc_name =
  { Automaton.loc_name; invariant; kind }

let edge ?(guard = tt) ?(sync = Automaton.NoSync) ?(update = Update.none) src
    dst =
  { Automaton.src; guard; sync; update; dst }

(* The unreduced zone graph as a network transform: every clock pinned
   always-active, so active-clock reduction normalizes nothing, and a
   bound of 0 changes no extrapolation constant.  The oracle the
   reduction's differential tests compare against. *)
let pin_all (net : Network.t) =
  let n = Array.length net.Network.clock_names in
  let rec go net x =
    if x >= n then net else go (Network.bump_clock_bound net x 0) (x + 1)
  in
  go net 1

(* Two-phase automaton: L0 --(1 <= x <= 2, x := 0)--> L1 (inv x <= 4)
   --(x == 4)--> L2.  Clock [y] is never reset, so on *entering* L2 it
   ranges over [5, 6]: the canonical sup-query example.  L2 is
   committed so that time stops there — exactly like the paper's [seen]
   location of the measuring automaton; otherwise [y] would keep
   growing at L2 and its sup would rightly be infinite. *)
let two_phase () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let y = Network.Builder.clock b "y" in
  let p =
    Automaton.make ~name:"P"
      ~locations:
        [
          loc "L0";
          loc "L1" ~invariant:(Guard.clock_le x 4);
          loc "L2" ~kind:Automaton.Committed;
        ]
      ~edges:
        [
          edge 0 1
            ~guard:(Guard.conj (Guard.clock_ge x 1) (Guard.clock_le x 2))
            ~update:(Update.reset x);
          edge 1 2 ~guard:(Guard.clock_eq x 4);
        ]
      ~initial:0
  in
  Network.Builder.add_automaton b p;
  let net = Network.Builder.build b in
  (net, x, y)

(* Urgency: T sets [flag] at z == 5; U's urgent [hurry!] edge is then
   enabled, so time may not pass until U moves. *)
let urgent_gate () =
  let b = Network.Builder.create () in
  let z = Network.Builder.clock b "z" in
  let flag = Network.Builder.int_var b "flag" ~lo:0 ~hi:1 ~init:0 in
  let hurry = Network.Builder.channel b "hurry" Channel.Broadcast ~urgent:true in
  let u =
    Automaton.make ~name:"U"
      ~locations:[ loc "L0"; loc "L1" ]
      ~edges:
        [
          edge 0 1
            ~guard:(Guard.data Expr.(Cmp (Eq, Var flag, Int 1)))
            ~sync:(Automaton.Send hurry);
        ]
      ~initial:0
  in
  let t =
    Automaton.make ~name:"T"
      ~locations:[ loc "M0" ~invariant:(Guard.clock_le z 5); loc "M1" ]
      ~edges:
        [
          edge 0 1 ~guard:(Guard.clock_eq z 5)
            ~update:(Update.set flag (Expr.Int 1));
        ]
      ~initial:0
  in
  Network.Builder.add_automaton b u;
  Network.Builder.add_automaton b t;
  (Network.Builder.build b, z)

(* Committed: while A sits in committed K1, the unrelated B may not
   move. *)
let committed_gate () =
  let b = Network.Builder.create () in
  let w = Network.Builder.clock b "w" in
  let a =
    Automaton.make ~name:"A"
      ~locations:
        [
          loc "K0" ~invariant:(Guard.clock_le w 3);
          loc "K1" ~kind:Automaton.Committed;
          loc "K2";
        ]
      ~edges:[ edge 0 1 ~guard:(Guard.clock_eq w 3); edge 1 2 ]
      ~initial:0
  in
  let bb =
    Automaton.make ~name:"B"
      ~locations:[ loc "N0"; loc "N1" ]
      ~edges:[ edge 0 1 ]
      ~initial:0
  in
  Network.Builder.add_automaton b a;
  Network.Builder.add_automaton b bb;
  (Network.Builder.build b, w)

(* Binary handshake: S moves iff R has reached its listening
   location. *)
let handshake () =
  let b = Network.Builder.create () in
  let z = Network.Builder.clock b "z" in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:false in
  let s =
    Automaton.make ~name:"S"
      ~locations:[ loc "P0"; loc "P1" ]
      ~edges:[ edge 0 1 ~sync:(Automaton.Send c) ]
      ~initial:0
  in
  let r =
    Automaton.make ~name:"R"
      ~locations:[ loc "Q0"; loc "Q1"; loc "Q2" ]
      ~edges:
        [
          edge 0 1 ~guard:(Guard.clock_ge z 2);
          edge 1 2 ~sync:(Automaton.Recv c);
        ]
      ~initial:0
  in
  Network.Builder.add_automaton b s;
  Network.Builder.add_automaton b r;
  (Network.Builder.build b, z)

(* Broadcast: one sender, two receivers of which only one is enabled;
   the disabled one must not block and must not move. *)
let broadcast_pair () =
  let b = Network.Builder.create () in
  let ok = Network.Builder.int_var b "ok" ~lo:0 ~hi:1 ~init:1 in
  let c = Network.Builder.channel b "bc" Channel.Broadcast ~urgent:false in
  let s =
    Automaton.make ~name:"S"
      ~locations:[ loc "P0"; loc "P1" ]
      ~edges:[ edge 0 1 ~sync:(Automaton.Send c) ]
      ~initial:0
  in
  let recv name guard =
    Automaton.make ~name
      ~locations:[ loc "R0"; loc "R1" ]
      ~edges:[ edge 0 1 ~sync:(Automaton.Recv c) ~guard ]
      ~initial:0
  in
  Network.Builder.add_automaton b s;
  Network.Builder.add_automaton b
    (recv "REN" (Guard.data Expr.(Cmp (Eq, Var ok, Int 1))));
  Network.Builder.add_automaton b
    (recv "RDIS" (Guard.data Expr.(Cmp (Eq, Var ok, Int 0))));
  Network.Builder.build b

(* A wide-frontier, high-subsumption model: three interleaved
   components, each looping through branches that reset its own clock,
   so many discrete interleavings keep producing comparable zones for
   the same state and the antichain prunes heavily — the worst case
   for concurrent subsumed inserts.  Every location B carries an
   invariant, so each component constrains time and a query's cone
   keeps all three: its slices are the identity. *)
let wide_frontier () =
  let b = Network.Builder.create () in
  let clocks =
    Array.init 3 (fun i -> Network.Builder.clock b (Printf.sprintf "c%d" i))
  in
  Array.iteri
    (fun i x ->
      let locations =
        [ loc "A"; loc "B" ~invariant:(Guard.clock_le x 5); loc "C" ]
      in
      let edges =
        [
          edge 0 1 ~update:(Update.reset x);
          edge 0 2 ~guard:(Guard.clock_ge x 2) ~update:(Update.reset x);
          edge 1 0 ~guard:(Guard.clock_ge x 3);
          edge 2 0 ~update:(Update.reset x);
        ]
      in
      Network.Builder.add_automaton b
        (Automaton.make ~name:(Printf.sprintf "P%d" i) ~locations ~edges
           ~initial:0))
    clocks;
  Network.Builder.build b

module Reach = Ita_mc.Reach
module Query = Ita_mc.Query
module Wcrt = Ita_mc.Wcrt
module Bound = Ita_dbm.Bound

(* The unsliced oracles for [Reach.reach] and [Wcrt.sup], which always
   slice.  [Reach.explore] takes no query and never slices: explore the
   whole network under Extra+LU on the sequential engine, with the
   query's clock constants (and, for a sup, the measured clock at
   [max_ceiling]) as extra bounds, and test every stored configuration
   against the goal.  Under subset subsumption every generated zone
   lies inside a stored one, so the stored configurations meet the
   goal exactly when a generated one does.  A sup is read off one
   exploration at [max_ceiling]: [Wcrt.sup] reaches the same value
   through smaller ceilings first. *)
let unsliced_explore net extra_bounds on_store =
  match
    Reach.explore ~abstraction:Reach.ExtraLU ~domains:1 ~extra_bounds net
      ~on_store
  with
  | `Complete stats -> stats
  | `Budget_exhausted _ -> assert false (* no budget *)

let goal_zone net (q : Query.t) c =
  Semantics.zone_of_goal net c q.Query.guard ~comp_locs:q.Query.comp_locs

(* [true] iff the goal of [q] is reachable *)
let unsliced_reach net q =
  let hit = ref false in
  ignore
    (unsliced_explore net (Query.clock_constants net q) (fun c ->
         if goal_zone net q c <> None then hit := true));
  !hit

let unsliced_sup ?(max_ceiling = 1 lsl 40) net ~at ~clock =
  let best = ref None in
  let stats =
    unsliced_explore net
      ((clock, max_ceiling) :: Query.clock_constants net at)
      (fun c ->
        match goal_zone net at c with
        | None -> ()
        | Some z -> (
            let b = Ita_dbm.Dbm.sup z clock in
            match !best with
            | Some b' when not (Bound.lt_bound b' b) -> ()
            | _ -> best := Some b))
  in
  match !best with
  | None -> Wcrt.Goal_unreachable stats
  | Some b when Bound.is_infinity b || Bound.value b >= max_ceiling ->
      Wcrt.Sup_unbounded { ceiling = max_ceiling; stats }
  | Some b ->
      Wcrt.Sup
        {
          value = Bound.value b;
          kind = (if Bound.is_strict b then Wcrt.Approached else Wcrt.Attained);
          stats;
        }
