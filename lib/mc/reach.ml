open Ita_ta
module Dbm = Ita_dbm.Dbm
module Prng = Ita_util.Prng

type order = Bfs | Dfs | Random_dfs of int
type budget = { max_states : int option; max_seconds : float option }

let no_budget = { max_states = None; max_seconds = None }
let states n = { max_states = Some n; max_seconds = None }

module Slice = Ita_analysis.Slice

type slicing = Whole_network

type stats = {
  explored : int;
  stored : int;
  transitions : int;
  elapsed : float;
  domains : int;
  steals : int;
}

type step = { via : Semantics.label option; state : Semantics.state }

type outcome =
  | Reachable of { witness : step list; goal_zone : Dbm.t; stats : stats }
  | Unreachable of stats
  | Budget_exhausted of stats

(* The pure parser of TAMC_DOMAINS, exposed for the command-line
   converters and the unit tests. *)
let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some _ | Option.None ->
      Error
        "expected a positive integer (1 runs one worker on the calling domain)"

(* The number of worker domains when the caller does not say: the
   TAMC_DOMAINS environment variable (so CI can run the whole test suite
   at one domain and at several) or the machine's core count.  It is an
   operator knob, not an API: an invalid value falls back exactly like
   an unset one rather than fail — but loudly, on stderr, naming the
   valid values, so a typo can never silently invalidate a whole CI
   leg. *)
let default_domains () =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "TAMC_DOMAINS" with
  | Some s when String.trim s <> "" -> (
      match parse_domains s with
      | Ok n -> n
      | Error err ->
          Printf.eprintf
            "tamc: warning: TAMC_DOMAINS=%S ignored (%s); using the \
             machine's core count\n\
             %!"
            s err;
          cores)
  | Some _ | Option.None -> cores

let default_slicing () = Whole_network

(* Discrete states are interned under a packed key: locations and
   variables bit-packed into a short int array, each variable in
   exactly the bits its declared range needs.  [Update.set_checked]
   confines every variable to that range, so the packing is injective
   over every state the semantics can produce. *)
module Packed_key = struct
  type t = int array

  let equal = (( = ) : int array -> int array -> bool)
  let hash (a : int array) = Hashtbl.hash a
end

module H = Hashtbl.Make (Packed_key)

let bits_needed n =
  let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
  go 0 n

let make_packer (net : Network.t) =
  let ranges = net.Network.var_ranges in
  let nc = Array.length net.Network.automata in
  let nv = Array.length ranges in
  let loc_bits =
    Array.map
      (fun (a : Automaton.t) ->
        bits_needed (Array.length a.Automaton.locations - 1))
      net.Network.automata
  in
  let var_bits = Array.map (fun (lo, hi) -> bits_needed (hi - lo)) ranges in
  (* fields never straddle a word boundary, so the word count must come
     from the same greedy layout the packer uses, not from ceil(total/62) *)
  let words =
    let word = ref 0 and used = ref 0 in
    let account bits =
      if bits > 0 then begin
        if !used + bits > 62 then begin
          incr word;
          used := 0
        end;
        used := !used + bits
      end
    in
    Array.iter account loc_bits;
    Array.iter account var_bits;
    !word + 1
  in
  fun (st : Semantics.state) ->
    let out = Array.make words 0 in
    let word = ref 0 and used = ref 0 in
    let push bits v =
      if bits > 0 then begin
        if !used + bits > 62 then begin
          incr word;
          used := 0
        end;
        out.(!word) <- out.(!word) lor (v lsl !used);
        used := !used + bits
      end
    in
    for i = 0 to nc - 1 do
      push loc_bits.(i) st.Semantics.locs.(i)
    done;
    for v = 0 to nv - 1 do
      push var_bits.(v) (st.Semantics.env.(v) - fst ranges.(v))
    done;
    out

(* One zone of the passed list.  [pruned] is set when the antichain
   drops the slot, so a waiting node can tell in O(1) whether its zone
   is still stored.  The pop-time probe reads it without the shard
   lock: a stale read can only let an already-pruned zone be expanded
   once more, which costs redundant work but never soundness (its
   successors are subsumed by the pruner's). *)
type slot = { zone : Dbm.t; mutable pruned : bool }

let dead_slot = { zone = Dbm.zero 0; pruned = true }

(* The passed list stores, per discrete state, the antichain of maximal
   zones seen so far under DBM inclusion, in a growable array scanned
   without allocating.  [canon] is the interned discrete state: every
   later configuration with an equal state is rewritten to share it
   physically, so one hash lookup per successor replaces the former
   find-per-probe pattern. *)
type entry = {
  canon : Semantics.state;
  mutable slots : slot array;
  mutable len : int;
}

let entry_of passed key (st : Semantics.state) =
  match H.find_opt passed key with
  | Some e -> e
  | None ->
      let e = { canon = st; slots = [||]; len = 0 } in
      H.add passed key e;
      e

let subsumed_in e (z : Dbm.t) =
  let i = ref 0 and hit = ref false in
  while (not !hit) && !i < e.len do
    if Dbm.subset z e.slots.(!i).zone then hit := true;
    incr i
  done;
  !hit

(* Insert [z], pruning stored zones it subsumes.  [resident] tracks the
   true passed-list population for the final stats. *)
let store_in e (z : Dbm.t) resident =
  let keep = ref 0 in
  for i = 0 to e.len - 1 do
    let s = e.slots.(i) in
    if Dbm.subset s.zone z then begin
      s.pruned <- true;
      decr resident
    end
    else begin
      e.slots.(!keep) <- s;
      incr keep
    end
  done;
  e.len <- !keep;
  let s = { zone = z; pruned = false } in
  if e.len = Array.length e.slots then begin
    let cap = max 4 (2 * e.len) in
    let slots = Array.make cap s in
    Array.blit e.slots 0 slots 0 e.len;
    e.slots <- slots
  end;
  e.slots.(e.len) <- s;
  e.len <- e.len + 1;
  incr resident;
  s

let dump_table passed acc =
  H.fold
    (fun _ e acc ->
      (e.canon, List.init e.len (fun i -> e.slots.(i).zone)) :: acc)
    passed acc

(* Certificates and differential tests need the dumped passed list to
   be byte-stable across hash-table layouts and shard splits: sort the
   entries by discrete state and each antichain by the stable zone
   order. *)
let sorted_dump l =
  List.map
    (fun ((st : Semantics.state), zs) -> (st, List.sort Dbm.compare zs))
    l
  |> List.sort (fun ((a : Semantics.state), _) ((b : Semantics.state), _) ->
         Stdlib.compare
           (a.Semantics.locs, a.Semantics.env)
           (b.Semantics.locs, b.Semantics.env))

(* A worker's waiting nodes: a mutex-guarded circular buffer that can be
   taken from at either end. *)
module Deque = struct
  type 'a t = {
    lock : Mutex.t;
    mutable buf : 'a option array;
    mutable head : int;
    mutable len : int;
  }

  let create () =
    {
      lock = Mutex.create ();
      buf = Array.make 64 Option.None;
      head = 0;
      len = 0;
    }

  let push t x =
    Mutex.lock t.lock;
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let buf = Array.make (2 * cap) Option.None in
      for i = 0 to t.len - 1 do
        buf.(i) <- t.buf.((t.head + i) mod cap)
      done;
      t.buf <- buf;
      t.head <- 0
    end;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
    t.len <- t.len + 1;
    Mutex.unlock t.lock

  let pop_newest t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then Option.None
      else begin
        let i = (t.head + t.len - 1) mod Array.length t.buf in
        let x = t.buf.(i) in
        t.buf.(i) <- Option.None;
        t.len <- t.len - 1;
        x
      end
    in
    Mutex.unlock t.lock;
    r

  let pop_oldest t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then Option.None
      else begin
        let x = t.buf.(t.head) in
        t.buf.(t.head) <- Option.None;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        x
      end
    in
    Mutex.unlock t.lock;
    r
end

type shard = { s_lock : Mutex.t; s_table : entry H.t; s_resident : int ref }

(* Waiting nodes carry parent pointers, so witness reconstruction needs
   no synchronisation and a node stays alive only while it waits or a
   live node descends from it. *)
type node = {
  config : Semantics.config;
  parent : node option;
  via : Semantics.label option;
  slot : slot;  (* the stored zone backing this waiting node *)
}

let path_to n =
  let rec go n acc =
    match n with
    | Option.None -> acc
    | Some n ->
        go n.parent ({ via = n.via; state = n.config.Semantics.state } :: acc)
  in
  go (Some n) []

type stop =
  | Found of node * Dbm.t
  | Over_budget
  | Failed of exn * Printexc.raw_backtrace

exception Halt

type engine_result =
  | Goal_found of step list * Dbm.t * stats
  | Space_exhausted of stats
  | Out_of_budget of stats

(* A key's shard comes from the top 6 bits of its 30-bit hash: each
   shard's table picks buckets with the low bits, so taking the shard
   from them too would file all of a shard's keys under one bucket in
   64. *)
let n_shards = 64
let shard_of key = (Packed_key.hash key lsr 24) land (n_shards - 1)

(* The exploration engine.  The passed list is split into [n_shards]
   shards keyed by the packed-state hash, each a mutex-protected
   antichain table with its own resident counter; the subsumption probe
   and the insert happen under one lock acquisition, so two domains
   racing on comparable zones can never both store (which would
   double-count [stored] and leave a non-antichain passed list).

   Each of the [domains] workers owns a deque of waiting nodes and takes
   from it in the caller's order: oldest first for [Bfs], newest first
   for [Dfs] and [Random_dfs], where worker [w] shuffles each successor
   list with a generator seeded [s + 31 * w].  A worker whose own deque
   is empty steals the oldest node of another's (near the root, likely
   a large subtree).  Termination is a global count of
   pushed-but-not-yet-expanded nodes: a worker only quits when every
   deque it probed was empty and that count is zero.  Worker 0 runs on
   the calling domain, so [domains = 1] spawns no domain (fork-based
   callers stay legal) and runs one deterministic schedule: a FIFO queue
   for [Bfs], a stack otherwise.

   States enter the passed list when pushed (not when popped): later
   duplicates are subsumed away before they ever occupy a deque.  A
   pushed state whose zone got pruned by a larger newcomer is skipped
   at pop time — the newcomer covers its successors.  Goal checking
   happens at state creation, so counterexamples are found as early as
   possible (UPPAAL does the same).

   What the schedule cannot change: successor computation is a pure
   function of the popped configuration, and a stored zone is dropped
   only when a zone that subsumes it is stored, so verdicts and WCRT
   suprema are the same in any order at any domain count.  Which zones
   get expanded before being pruned does depend on the order and the
   schedule, and with it [explored], [transitions], [stored] and the
   final antichain contents. *)
let run ?(order = Bfs) ?(budget = no_budget) ?domains net ~goal ~on_store () =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let t0 = Unix.gettimeofday () in
  let pack = make_packer net in
  (* small shard tables: most queries are tiny (a DSE sweep runs
     thousands of them), and together the shards start with 4096
     buckets *)
  let shards =
    Array.init n_shards (fun _ ->
        { s_lock = Mutex.create (); s_table = H.create 64; s_resident = ref 0 })
  in
  let deques = Array.init domains (fun _ -> Deque.create ()) in
  let take =
    match order with
    | Bfs -> Deque.pop_oldest
    | Dfs | Random_dfs _ -> Deque.pop_newest
  in
  let stop : stop option Atomic.t = Atomic.make Option.None in
  let pending = Atomic.make 0 in
  let explored = Atomic.make 0 in
  let transitions = Array.make domains 0 in
  let steals = Array.make domains 0 in
  (* serialises user callbacks: [on_store] consumers (sup tracking,
     deadlock probes) stay race-free without changing their API *)
  let cb_lock = Mutex.create () in
  let halt r =
    ignore (Atomic.compare_and_set stop Option.None (Some r));
    raise Halt
  in
  let over_budget e =
    (match budget.max_states with Some m -> e >= m | None -> false)
    || match budget.max_seconds with
       | Some s -> Unix.gettimeofday () -. t0 > s
       | None -> false
  in
  let add w via parent (c : Semantics.config) =
    match goal c with
    | Some gz ->
        halt (Found ({ config = c; parent; via; slot = dead_slot }, gz))
    | None ->
        let key = pack c.Semantics.state in
        let sh = shards.(shard_of key) in
        Mutex.lock sh.s_lock;
        let e = entry_of sh.s_table key c.Semantics.state in
        if subsumed_in e c.Semantics.zone then Mutex.unlock sh.s_lock
        else begin
          (* intern the discrete state: revisits of this entry now share
             it physically, so equality short-circuits on [==] *)
          let c =
            if c.Semantics.state == e.canon then c
            else { c with Semantics.state = e.canon }
          in
          let s = store_in e c.Semantics.zone sh.s_resident in
          Mutex.unlock sh.s_lock;
          Mutex.lock cb_lock;
          (match on_store c with
          | () -> Mutex.unlock cb_lock
          | exception ex ->
              Mutex.unlock cb_lock;
              raise ex);
          Atomic.incr pending;
          Deque.push deques.(w) { config = c; parent; via; slot = s }
        end
  in
  let process w rng (n : node) =
    if not n.slot.pruned then begin
      let e = 1 + Atomic.fetch_and_add explored 1 in
      if over_budget e then halt Over_budget;
      let succs = Array.of_list (Semantics.successors net n.config) in
      (match rng with Some g -> Prng.shuffle g succs | None -> ());
      Array.iter
        (fun (label, c') ->
          transitions.(w) <- transitions.(w) + 1;
          add w (Some label) (Some n) c')
        succs
    end
  in
  let worker w () =
    let rng =
      match order with
      | Random_dfs seed -> Some (Prng.create (seed + (31 * w)))
      | Bfs | Dfs -> Option.None
    in
    try
      let rec next () =
        if Atomic.get stop <> Option.None then Option.None
        else
          match take deques.(w) with
          | Some _ as r -> r
          | None -> (
              let stolen = ref Option.None in
              let i = ref 1 in
              while !stolen = Option.None && !i < domains do
                (match Deque.pop_oldest deques.((w + !i) mod domains) with
                | Some _ as r ->
                    steals.(w) <- steals.(w) + 1;
                    stolen := r
                | None -> ());
                incr i
              done;
              match !stolen with
              | Some _ as r -> r
              | None ->
                  if Atomic.get pending = 0 then Option.None
                  else begin
                    Domain.cpu_relax ();
                    next ()
                  end)
      in
      let rec loop () =
        match next () with
        | None -> ()
        | Some n ->
            process w rng n;
            (* decremented only after the node's successors are all
               pushed (and counted), so [pending] can never dip to
               zero while reachable work exists *)
            Atomic.decr pending;
            loop ()
      in
      loop ()
    with
    | Halt -> ()
    | ex ->
        let bt = Printexc.get_raw_backtrace () in
        ignore
          (Atomic.compare_and_set stop Option.None (Some (Failed (ex, bt))))
  in
  (try add 0 Option.None Option.None (Semantics.initial net) with Halt -> ());
  if Atomic.get stop = Option.None then begin
    let doms =
      Array.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    Array.iter Domain.join doms
  end;
  let stats () =
    {
      explored = Atomic.get explored;
      stored = Array.fold_left (fun a sh -> a + !(sh.s_resident)) 0 shards;
      transitions = Array.fold_left ( + ) 0 transitions;
      elapsed = Unix.gettimeofday () -. t0;
      domains;
      steals = Array.fold_left ( + ) 0 steals;
    }
  in
  let dump () =
    sorted_dump
      (Array.fold_left (fun acc sh -> dump_table sh.s_table acc) [] shards)
  in
  let result =
    match Atomic.get stop with
    | Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some (Found (n, gz)) -> Goal_found (path_to n, gz, stats ())
    | Some Over_budget -> Out_of_budget (stats ())
    | None -> Space_exhausted (stats ())
  in
  (result, dump)

(* Everything certificate emission needs from a completed exploration:
   the network the engine explored (flow-refined and query-bumped —
   the activity tables the stored zones were normalized with are
   {e these}) and the sorted passed-list dump. *)
type snapshot = {
  snap_net : Network.t;
  snap_passed : (Semantics.state * Dbm.t list) list;
}

(* The observation seed of a query's backward cone: its components, the
   clocks its guard tests, the variables it reads. *)
let goal_of_query ~extra_clocks (q : Query.t) : Slice.goal =
  {
    Slice.g_comps = List.map fst q.Query.comp_locs;
    g_clocks =
      extra_clocks
      @ List.map
          (fun (a : Guard.atom) -> a.Guard.clock)
          q.Query.guard.Guard.clocks;
    g_vars =
      Expr.bvars q.Query.guard.Guard.data
      @ List.concat_map
          (fun (a : Guard.atom) -> Expr.ivars a.Guard.bound)
          q.Query.guard.Guard.clocks;
  }

(* One dataflow analysis serves the cone report and the refinement of
   the network the engine explores. *)
let slice_query Whole_network ?(extra_clocks = []) net (q : Query.t) =
  let fa = Ita_analysis.Flow.analyze net in
  ( Slice.cone ~fa net (goal_of_query ~extra_clocks q),
    Ita_analysis.Flow.refine_lu fa net,
    q )

let reach ?order ?budget ?domains ?snap net (q : Query.t) =
  let net =
    List.fold_left
      (fun net (x, c) -> Network.bump_clock_bound net x c)
      (Ita_analysis.Flow.refine_network net)
      (Query.clock_constants net q)
  in
  let goal c =
    Semantics.zone_of_goal net c q.Query.guard ~comp_locs:q.Query.comp_locs
  in
  match
    run ?order ?budget ?domains net ~goal ~on_store:(fun _ -> ()) ()
  with
  | Goal_found (witness, goal_zone, stats), _ ->
      Reachable { witness; goal_zone; stats }
  | Space_exhausted stats, dump ->
      (* the verdict is an invariant claim: surface everything a
         certificate needs while the passed list is still alive *)
      (match snap with
      | Some f -> f { snap_net = net; snap_passed = dump () }
      | Option.None -> ());
      Unreachable stats
  | Out_of_budget stats, _ -> Budget_exhausted stats

let explore ?order ?budget ?domains ?snap net ~on_store =
  match
    run ?order ?budget ?domains net ~goal:(fun _ -> Option.None) ~on_store ()
  with
  | Goal_found _, _ -> assert false
  | Space_exhausted stats, dump ->
      (match snap with Some f -> f (dump ()) | Option.None -> ());
      `Complete stats
  | Out_of_budget stats, _ -> `Budget_exhausted stats

let pp_stats ppf s =
  Format.fprintf ppf "explored %d, stored %d, transitions %d, %.3fs"
    s.explored s.stored s.transitions s.elapsed;
  if s.domains > 1 then
    Format.fprintf ppf " (%d domains, %d steals)" s.domains s.steals

let pp_witness net ppf steps =
  List.iteri
    (fun i { via; state } ->
      (match via with
      | None -> Format.fprintf ppf "@[<h>%3d. (initial) " i
      | Some l ->
          Format.fprintf ppf "@[<h>%3d. [%a] " i (Semantics.pp_label net) l);
      Semantics.pp_state net ppf state;
      Format.fprintf ppf "@]@.")
    steps
