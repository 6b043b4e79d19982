(* Small hand-built networks with known answers, shared by the ta and
   mc test suites, and the test suites' shared helpers. *)

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
   invariant, [c_i <= 5]. *)
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
module Dbm = Ita_dbm.Dbm

(* [Wcrt.sup] starts its ceiling loop at the measured clock's own
   constant in the network it is given: raising that constant, as
   [Gen.generate] raises its observer clock's, is how a test picks the
   first ceiling. *)
let with_ceiling ~clock ceiling net =
  Network.bump_clock_bound net clock ceiling

(* The paper's Property-1 search, the oracle for [Wcrt.sup]: the WCRT
   is the largest [C] with [seen && y >= C] reachable.  Doubling from
   [hi] finds an unreachable constant, then bisection closes the gap.
   An exhausted budget stops the search with the bounds established so
   far. *)
type search_result = {
  lower : int option;  (** largest [C] with [goal && clock >= C] reachable *)
  upper : int option;  (** smallest [C] proven unreachable *)
  runs : int;
}

let binary_search ?budget ?(hi = 1_000_000) net ~at ~clock =
  let runs = ref 0 in
  let exception Stop of search_result in
  let stop lower upper = raise (Stop { lower; upper; runs = !runs }) in
  let test c =
    incr runs;
    match
      Reach.reach ?budget net (Query.with_guard at (Guard.clock_ge clock c))
    with
    | Reach.Reachable _ -> `Reachable
    | Reach.Unreachable _ -> `Unreachable
    | Reach.Budget_exhausted _ -> `Unknown
  in
  try
    (* the goal location must be reachable at all for the search to
       mean anything *)
    (match test 0 with
    | `Reachable -> ()
    | `Unreachable -> stop None (Some 0)
    | `Unknown -> stop None None);
    let rec climb lo hi =
      match test hi with
      | `Reachable -> climb hi (hi * 2)
      | `Unreachable -> (lo, hi)
      | `Unknown -> stop (Some lo) None
    in
    (* invariant: lo reachable, up unreachable *)
    let rec bisect lo up =
      if up - lo <= 1 then stop (Some lo) (Some up)
      else
        let mid = lo + ((up - lo) / 2) in
        match test mid with
        | `Reachable -> bisect mid up
        | `Unreachable -> bisect lo mid
        | `Unknown -> stop (Some lo) (Some up)
    in
    let lo, up = climb 0 hi in
    bisect lo up
  with Stop r -> r

(* The ExtraM reference explorer: the oracle for the engine's Extra+LU
   abstraction and for its flow-refined L/U bounds.  Breadth-first over
   the certificate checker's naive successor relation ([Reference]: no
   extrapolation, no active-clock reduction); each zone is delay-closed
   and then extrapolated with classical maximal constants, the
   builder's [Network.k] (which flow refinement never rewrites) raised
   to [extra_bounds], under one [Dbm.subset] antichain per discrete
   state.  It uses nothing from [Semantics], [Reach], [Wcrt] or [Flow]:
   no key packing or sharding.  Returns the final
   passed list; every generated zone lies inside one of its zones.
   With [~lu:true] it extrapolates with Extra+LU instead, over the
   network's per-state L/U tables (max over the components' [lloc] /
   [uloc] rows, floored by [lbase] / [ubase] raised to [extra_bounds]):
   run on [Flow.refine_network net], that checks the flow-refined
   tables alone against ExtraM on the builder's constants. *)
let reference_passed ?(lu = false) (net : Network.t) extra_bounds =
  let k = Array.copy net.Network.k in
  let lbase = Array.copy net.Network.lbase in
  let ubase = Array.copy net.Network.ubase in
  List.iter
    (fun (x, c) ->
      k.(x) <- max k.(x) c;
      lbase.(x) <- max lbase.(x) c;
      ubase.(x) <- max ubase.(x) c)
    extra_bounds;
  let extrapolate (st : Reference.state) z =
    if lu then begin
      let l = Array.copy lbase and u = Array.copy ubase in
      Array.iteri
        (fun i li ->
          for x = 1 to Array.length l - 1 do
            l.(x) <- max l.(x) net.Network.lloc.(i).(li).(x);
            u.(x) <- max u.(x) net.Network.uloc.(i).(li).(x)
          done)
        st.Reference.locs;
      Dbm.extrapolate_lu z l u
    end
    else Dbm.extrapolate z k
  in
  let passed = Hashtbl.create 64 and waiting = Queue.create () in
  let add (st : Reference.state) z =
    let z =
      if Reference.delay_allowed net st then Reference.delay net st z
      else z
    in
    if not (Dbm.is_empty z) then begin
      extrapolate st z;
      let key = (st.Reference.locs, st.Reference.env) in
      let zs = Option.value ~default:[] (Hashtbl.find_opt passed key) in
      if not (List.exists (Dbm.subset z) zs) then begin
        Hashtbl.replace passed key
          (z :: List.filter (fun z' -> not (Dbm.subset z' z)) zs);
        Queue.push (st, z) waiting
      end
    end
  in
  let st0, z0 = Reference.initial net in
  add st0 z0;
  while not (Queue.is_empty waiting) do
    let st, z = Queue.pop waiting in
    List.iter
      (fun (j : Reference.joint) ->
        match Reference.fire net st z j.Reference.parts with
        | Some (st', z') -> add st' z'
        | None -> ())
      (Reference.joint_transitions net st)
  done;
  Hashtbl.fold
    (fun (locs, env) zs acc -> ({ Reference.locs; env }, zs) :: acc)
    passed []

(* the non-empty intersections of the passed zones with the goal of [q] *)
let reference_goal_zones (q : Query.t) passed =
  List.concat_map
    (fun ((st : Reference.state), zs) ->
      if
        List.for_all (fun (i, l) -> st.Reference.locs.(i) = l) q.Query.comp_locs
        && Guard.data_holds st.Reference.env q.Query.guard
      then
        List.filter_map
          (fun z ->
            let z = Dbm.copy z in
            Guard.apply st.Reference.env q.Query.guard z;
            if Dbm.is_empty z then None else Some z)
          zs
      else [])
    passed

(* [true] iff the goal of [q] is reachable *)
let reference_reach ?lu net q =
  reference_goal_zones q
    (reference_passed ?lu net (Query.clock_constants net q))
  <> []

(* The supremum of [clock] over the goal of [at], read off one
   exploration with the measured clock's constant at [ceiling]: exact
   below it, [`Unbounded] at or above it. *)
let reference_sup ?lu ~ceiling net ~at ~clock =
  let zones =
    reference_goal_zones at
      (reference_passed ?lu net
         ((clock, ceiling) :: Query.clock_constants net at))
  in
  let max_bound b b' = if Bound.lt_bound b b' then b' else b in
  match List.map (fun z -> Dbm.sup z clock) zones with
  | [] -> `Unreachable
  | b :: bs ->
      let b = List.fold_left max_bound b bs in
      if Bound.is_infinity b || Bound.value b >= ceiling then `Unbounded
      else
        `Sup
          ( Bound.value b,
            if Bound.is_strict b then Ita_cert.Cert.Approached
            else Ita_cert.Cert.Attained )

(* Concrete-vs-symbolic cross-validation: [symbolic_cover net c] holds
   when some zone the engine stored for the discrete state of the
   concrete configuration [c] contains its clock valuation.  The engine
   explores [Flow.refine_network net], with the activity every query
   explores with, and the valuation is normalized as the engine
   normalizes zones: a clock that is not [Network.live_clock] reads 0.
   Stored zones are extrapolated supersets of the exact ones, so plain
   membership must hold; a refined activity table that drops a clock
   some later guard reads fails it. *)
let symbolic_cover ?domains net =
  let net = Ita_analysis.Flow.refine_network net in
  let store = Hashtbl.create 256 in
  (match
     Reach.explore ?domains net ~on_store:(fun (cfg : Semantics.config) ->
         let key =
           (cfg.Semantics.state.Semantics.locs, cfg.Semantics.state.Semantics.env)
         in
         let zones = Option.value (Hashtbl.find_opt store key) ~default:[] in
         Hashtbl.replace store key (cfg.Semantics.zone :: zones))
   with
  | `Complete _ -> ()
  | `Budget_exhausted _ -> failwith "symbolic_cover: exploration incomplete");
  fun (c : Concrete.t) ->
    let clocks =
      Array.mapi
        (fun x v ->
          if x = 0 || Network.live_clock net c.Concrete.locs x then v else 0)
        c.Concrete.clocks
    in
    match Hashtbl.find_opt store (c.Concrete.locs, c.Concrete.env) with
    | None -> false
    | Some zones -> List.exists (fun z -> Dbm.satisfies z clocks) zones

(* Like [Concrete.random_walk], but skipping enabled transitions whose
   target invariant fails: random nets produce such edges, and the
   symbolic engine drops them as empty-zone successors, so the oracle
   must not fire them either.  Returns the visited configurations. *)
let safe_walk net ~seed ~steps ~max_step_delay =
  let rng = Ita_util.Prng.create seed in
  let fire c label =
    match Concrete.apply net c (Concrete.Fire label) with
    | c' -> Some c'
    | exception Invalid_argument _ -> None
  in
  let rec go c k acc =
    if k = 0 then List.rev acc
    else
      let dmax =
        match Concrete.max_delay net c with
        | None -> max_step_delay
        | Some m -> min m max_step_delay
      in
      let d = if dmax > 0 then Ita_util.Prng.int rng (dmax + 1) else 0 in
      let c = if d > 0 then Concrete.apply net c (Concrete.Delay d) else c in
      let acc = if d > 0 then c :: acc else acc in
      match List.filter_map (fire c) (Concrete.fireable net c) with
      | [] -> if d = 0 then List.rev acc else go c (k - 1) acc
      | succs ->
          let c' = List.nth succs (Ita_util.Prng.int rng (List.length succs)) in
          go c' (k - 1) (c' :: acc)
  in
  go (Concrete.initial net) steps []

(* Runs [f] with the environment variable [var] set to [value].  The
   engine treats a blank TAMC_DOMAINS exactly like an unset one, so
   restoring to "" is a faithful undo even when the variable was
   absent before (putenv cannot unset). *)
let with_env var value f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value saved ~default:""))
    f
