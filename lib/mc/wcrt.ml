open Ita_ta
module Dbm = Ita_dbm.Dbm
module Bound = Ita_dbm.Bound

type bound_kind = Attained | Approached

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

let sup ?order ?budget ?abstraction ?domains ?snap
    ?(initial_ceiling = 1_000_000) ?(max_ceiling = 1 lsl 40) net ~at ~clock =
  (* slice once, before the ceiling loop: the cone is seeded with the
     goal plus the measured clock, so the sup is taken over exactly the
     same runs — the exploration below runs on the reduced network and
     needs no index translation of its own *)
  let sl, net, at =
    Reach.slice_query (Reach.default_slicing ()) ~extra_clocks:[ clock ] net
      at
  in
  let clock =
    match Ita_analysis.Slice.map_clock sl clock with
    | Some c -> c
    | None -> assert false (* the measured clock seeds the cone *)
  in
  let rec attempt ceiling =
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
    let extra_bounds = (clock, ceiling) :: Query.clock_constants net at in
    let last_snap = ref None in
    let explore_snap =
      match snap with
      | None -> None
      | Some _ -> Some (fun s -> last_snap := Some s)
    in
    let result =
      Reach.explore ?order ?budget ?abstraction ?domains ~extra_bounds
        ?snap:explore_snap net ~on_store
    in
    let observed () =
      match !best with
      | None -> None
      | Some b when Bound.is_infinity b -> None
      | Some b -> Some (Bound.value b)
    in
    match result with
    | `Budget_exhausted stats ->
        Sup_budget_exhausted { observed = observed (); stats }
    | `Complete stats -> (
        match !best with
        | None -> Goal_unreachable stats
        | Some b when Bound.is_infinity b || Bound.value b >= ceiling ->
            (* the sup collided with the extrapolation ceiling: it is an
               artifact of the abstraction, not a real bound *)
            if ceiling * 4 > max_ceiling then Sup_unbounded { ceiling; stats }
            else attempt (ceiling * 4)
        | Some b ->
            (* the bound is below the ceiling, so the passed list of
               this (final) attempt is the certifiable invariant *)
            (match (snap, !last_snap) with
            | Some f, Some (xnet, passed) ->
                f
                  {
                    Reach.snap_slice = sl;
                    snap_net = xnet;
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
  attempt initial_ceiling

type search_result = {
  lower : int option;
  upper : int option;
  runs : int;
  total_explored : int;
  total_elapsed : float;
}

let check ?order ?budget ?abstraction ?domains net (at : Query.t) clock c =
  let q = Query.with_guard at (Guard.clock_ge clock c) in
  Reach.reach ?order ?budget ?abstraction ?domains net q

let binary_search ?order ?budget ?abstraction ?domains ?(hi = 1_000_000) net
    ~at ~clock =
  let runs = ref 0 and explored = ref 0 and elapsed = ref 0.0 in
  let note (s : Reach.stats) =
    incr runs;
    explored := !explored + s.Reach.explored;
    elapsed := !elapsed +. s.Reach.elapsed
  in
  let result lower upper =
    {
      lower;
      upper;
      runs = !runs;
      total_explored = !explored;
      total_elapsed = !elapsed;
    }
  in
  let exception Stop of search_result in
  let test c =
    match check ?order ?budget ?abstraction ?domains net at clock c with
    | Reach.Reachable { stats; _ } ->
        note stats;
        `Reachable
    | Reach.Unreachable stats ->
        note stats;
        `Unreachable
    | Reach.Budget_exhausted stats ->
        note stats;
        `Unknown
  in
  try
    (* the goal location must be reachable at all for the search to
       mean anything *)
    let lower = ref None and upper = ref None in
    (match test 0 with
    | `Reachable -> lower := Some 0
    | `Unreachable -> raise (Stop (result None (Some 0)))
    | `Unknown -> raise (Stop (result None None)));
    (* exponential climb to an unreachable ceiling *)
    let hi = ref hi in
    let continue = ref true in
    while !continue do
      match test !hi with
      | `Reachable ->
          lower := Some !hi;
          hi := !hi * 2
      | `Unreachable ->
          upper := Some !hi;
          continue := false
      | `Unknown -> raise (Stop (result !lower None))
    done;
    (* invariant: lower reachable, upper unreachable *)
    let lo = ref (match !lower with Some l -> l | None -> 0) in
    let up = ref (match !upper with Some u -> u | None -> assert false) in
    while !up - !lo > 1 do
      let mid = !lo + ((!up - !lo) / 2) in
      match test mid with
      | `Reachable -> lo := mid
      | `Unreachable -> up := mid
      | `Unknown -> raise (Stop (result (Some !lo) (Some !up)))
    done;
    result (Some !lo) (Some !up)
  with Stop r -> r

let probe_lower ?order ?abstraction ?domains net ~at ~clock ~budget ~start
    ~step =
  let runs = ref 0 and explored = ref 0 and elapsed = ref 0.0 in
  let note (s : Reach.stats) =
    incr runs;
    explored := !explored + s.Reach.explored;
    elapsed := !elapsed +. s.Reach.elapsed
  in
  let lower = ref None in
  let c = ref start in
  let continue = ref true in
  while !continue do
    match check ?order ?abstraction ?domains ~budget net at clock !c with
    | Reach.Reachable { stats; _ } ->
        note stats;
        lower := Some !c;
        c := !c + step
    | Reach.Unreachable stats | Reach.Budget_exhausted stats ->
        note stats;
        continue := false
  done;
  {
    lower = !lower;
    upper = None;
    runs = !runs;
    total_explored = !explored;
    total_elapsed = !elapsed;
  }
