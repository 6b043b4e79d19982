open Ita_ta
module Dbm = Ita_dbm.Dbm
module Bound = Ita_dbm.Bound

type bound_kind = Ita_cert.Cert.sup_kind = Attained | Approached

type sup_result =
  | Sup of { value : int; kind : bound_kind; stats : Reach.stats }
  | Goal_unreachable of Reach.stats
  | Sup_budget_exhausted of { observed : int option; stats : Reach.stats }
  | Sup_unbounded of { ceiling : int; stats : Reach.stats }

let goal_sup net (q : Query.t) clock (c : Semantics.config) =
  match
    Semantics.zone_of_goal net c q.Query.guard ~comp_locs:q.Query.comp_locs
  with
  | None -> None
  | Some z -> Some (Dbm.sup z clock)

let sup ?order ?budget ?domains ?snap ?(max_ceiling = 1 lsl 40) net ~at
    ~clock =
  (* the network fixes the first ceiling: the measured clock's own
     constant, which [Gen.generate] raises for its observer clock *)
  let first_ceiling = max 1 net.Network.k.(clock) in
  (* slice and refine once, before the ceiling loop: the cone is
     seeded with the goal plus the measured clock, so the sup is taken
     over exactly the same runs — every attempt below explores the
     reduced, refined network and only bumps the ceiling *)
  let sl, net, at =
    Reach.slice_query (Reach.default_slicing ()) ~extra_clocks:[ clock ] net
      at
  in
  let clock =
    match Ita_analysis.Slice.map_clock sl clock with
    | Some c -> c
    | None -> assert false (* the measured clock seeds the cone *)
  in
  (* [collided]: the ceiling of the previous attempt, which the sup
     reached, so [goal && clock >= collided] is reachable *)
  let rec attempt ?collided ceiling =
    let best = ref None in
    let improve b =
      match !best with
      | None -> best := Some b
      | Some b' -> if Bound.lt_bound b' b then best := Some b
    in
    let on_store c =
      match goal_sup net at clock c with
      | None -> ()
      | Some b -> improve b
    in
    let bumped =
      List.fold_left
        (fun net (x, c) -> Network.bump_clock_bound net x c)
        net
        ((clock, ceiling) :: Query.clock_constants net at)
    in
    let last_passed = ref None in
    let explore_snap =
      match snap with
      | None -> None
      | Some _ -> Some (fun p -> last_passed := Some p)
    in
    let result =
      Reach.explore ?order ?budget ?domains ?snap:explore_snap bumped
        ~on_store
    in
    match result with
    | `Budget_exhausted stats ->
        (* a goal bound at or beyond the ceiling proves
           [goal && clock >= ceiling] reachable (Property 1 with
           C = ceiling), a finite one below it its own value *)
        let seen =
          Option.map
            (fun b ->
              if Bound.is_infinity b || Bound.value b >= ceiling then ceiling
              else Bound.value b)
            !best
        in
        Sup_budget_exhausted { observed = max seen collided; stats }
    | `Complete stats -> (
        match !best with
        | None -> Goal_unreachable stats
        | Some b when Bound.is_infinity b || Bound.value b >= ceiling ->
            (* the sup collided with the extrapolation ceiling: it is an
               artifact of the abstraction, not a real bound *)
            if ceiling * 4 > max_ceiling then Sup_unbounded { ceiling; stats }
            else attempt ~collided:ceiling (ceiling * 4)
        | Some b ->
            (* the bound is below the ceiling, so the passed list of
               this (final) attempt is the certifiable invariant *)
            (match (snap, !last_passed) with
            | Some f, Some passed ->
                f
                  {
                    Reach.snap_slice = sl;
                    snap_net = bumped;
                    snap_passed = passed;
                  }
            | _ -> ());
            Sup
              {
                value = Bound.value b;
                kind = (if Bound.is_strict b then Approached else Attained);
                stats;
              })
  in
  attempt first_ceiling
