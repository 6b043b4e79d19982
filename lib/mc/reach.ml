open Ita_ta
module Dbm = Ita_dbm.Dbm
module Vec = Ita_util.Vec
module Prng = Ita_util.Prng

type order = Bfs | Dfs | Random_dfs of int
type budget = { max_states : int option; max_seconds : float option }

let no_budget = { max_states = None; max_seconds = None }
let states n = { max_states = Some n; max_seconds = None }
let seconds s = { max_states = None; max_seconds = Some s }

let combine a b =
  let tighter merge x y =
    match (x, y) with
    | None, y -> y
    | x, None -> x
    | Some x, Some y -> Some (merge x y)
  in
  {
    max_states = tighter min a.max_states b.max_states;
    max_seconds = tighter min a.max_seconds b.max_seconds;
  }

type abstraction = Semantics.abstraction = ExtraM | ExtraLU | LuSim

module Slice = Ita_analysis.Slice

type slicing = Slice.mode = Off | Coi | CoiMerge

type stats = {
  explored : int;
  stored : int;
  transitions : int;
  elapsed : float;
  domains : int;
  steals : int;
  subsumed_lusim : int;
}

type step = { via : Semantics.label option; state : Semantics.state }

type outcome =
  | Reachable of { witness : step list; goal_zone : Dbm.t; stats : stats }
  | Unreachable of stats
  | Budget_exhausted of stats

(* The environment knobs (TAMC_DOMAINS / TAMC_ABSTRACTION) are
   operator knobs, not an API: unrecognised values fall back to the
   default rather than fail — but loudly, on stderr, naming the valid
   values, so a typo like [extra+lu] can no longer silently invalidate
   a whole CI leg.  The pure parsers are exposed for the command-line
   converters and the unit tests. *)

let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some _ | Option.None ->
      Error "expected a positive integer (1 selects the sequential engine)"

let parse_abstraction s =
  match String.lowercase_ascii (String.trim s) with
  | "extram" -> Ok ExtraM
  | "extralu" -> Ok ExtraLU
  | "lusim" -> Ok LuSim
  | _ -> Error "valid values: extram, extralu, lusim"

let abstraction_name = function
  | ExtraM -> "extram"
  | ExtraLU -> "extralu"
  | LuSim -> "lusim"

let warn_env var value err fallback =
  Printf.eprintf "tamc: warning: %s=%S ignored (%s); using %s\n%!" var value
    err fallback

let env_knob var parse fallback_desc default =
  match Sys.getenv_opt var with
  | Option.None -> default ()
  | Some s when String.trim s = "" -> default ()
  | Some s -> (
      match parse s with
      | Ok v -> v
      | Error err ->
          warn_env var s err fallback_desc;
          default ())

(* The number of worker domains when the caller does not say: the
   TAMC_DOMAINS environment variable (so CI can force both engines over
   the whole test suite) or the machine's core count.  [1] selects the
   sequential engine; an invalid value falls back exactly like an unset
   one. *)
let default_domains () =
  env_knob "TAMC_DOMAINS" parse_domains "the machine's core count" (fun () ->
      max 1 (Domain.recommended_domain_count ()))

(* The abstraction when the caller does not say: the TAMC_ABSTRACTION
   environment variable (so CI can force the whole test suite through
   any abstraction) or Extra+LU. *)
let default_abstraction () =
  env_knob "TAMC_ABSTRACTION" parse_abstraction "extralu" (fun () -> ExtraLU)

(* The model reduction every query runs under: cone-of-influence
   slicing plus quasi-equal clock merging.  Exposed so replays of the
   engine's slice ([tamc slice], benchmarks) use the same mode. *)
let default_slicing () = CoiMerge

(* Discrete states are interned under a packed key: locations and
   variables bit-packed into a short int array, each variable in
   exactly the bits its (declared or flow-inferred) range needs.  The
   packing is injective over in-range states, so exploration counts are
   independent of the bound source; a value outside its inferred range
   — impossible if the dataflow analysis is sound, since the runtime
   already confines variables to their declared ranges — fails fast
   rather than corrupting the passed list. *)
module Packed_key = struct
  type t = int array

  let equal = (( = ) : int array -> int array -> bool)
  let hash (a : int array) = Hashtbl.hash a
end

module H = Hashtbl.Make (Packed_key)

let bits_needed n =
  let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
  go 0 n

let make_packer (net : Network.t) ranges =
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
      let lo, hi = ranges.(v) in
      let x = st.Semantics.env.(v) in
      if x < lo || x > hi then
        failwith
          (Printf.sprintf
             "Reach: variable %s = %d escapes its inferred range [%d, %d] \
              (dataflow soundness violation)"
             net.Network.var_names.(v) x lo hi);
      push var_bits.(v) (x - lo)
    done;
    out

(* One zone of the passed list.  [gen] is bumped whenever the antichain
   prunes the slot, so a waiting-list entry can compare it against the
   generation it recorded when pushed — an O(1) liveness probe instead
   of the old [List.memq] scan of the whole antichain.  In the parallel
   engine the pop-time probe reads [gen] without the shard lock: a stale
   read can only let an already-pruned zone be expanded once more, which
   costs redundant work but never soundness (its successors are subsumed
   by the pruner's). *)
type slot = { zone : Dbm.t; mutable gen : int }

let dead_slot = { zone = Dbm.zero 0; gen = -1 }

(* The passed list stores, per discrete state, the antichain of maximal
   zones seen so far, in a growable array scanned without allocating.
   [canon] is the interned discrete state: every later configuration
   with an equal state is rewritten to share it physically, so one hash
   lookup per successor replaces the former find-per-probe pattern.
   [lu] is the per-state L/U bound pair when the antichain order is the
   a◁LU simulation ([LuSim]) — every zone filed under this entry shares
   the discrete state, hence the L/U vectors, so they are resolved once
   at entry creation and [Option.None] means plain DBM inclusion. *)
type entry = {
  canon : Semantics.state;
  mutable slots : slot array;
  mutable len : int;
  lu : (int array * int array) option;
}

let entry_of lu_of passed key (st : Semantics.state) =
  match H.find_opt passed key with
  | Some e -> e
  | None ->
      let e = { canon = st; slots = [||]; len = 0; lu = lu_of st } in
      H.add passed key e;
      e

(* The antichain order: plain canonical-DBM inclusion, or a◁LU
   simulation subsumption on the unextrapolated zones. *)
let zle e (z : Dbm.t) (z' : Dbm.t) =
  match e.lu with
  | Option.None -> Dbm.subset z z'
  | Some (l, u) -> Dbm.le_lu l u z z'

let subsumed_in e (z : Dbm.t) =
  let i = ref 0 and hit = ref false in
  while (not !hit) && !i < e.len do
    if zle e z e.slots.(!i).zone then hit := true;
    incr i
  done;
  !hit

(* Insert [z], pruning stored zones it subsumes.  [resident] tracks the
   true passed-list population for the final stats. *)
let store_in e (z : Dbm.t) resident =
  let keep = ref 0 in
  for i = 0 to e.len - 1 do
    let s = e.slots.(i) in
    if zle e s.zone z then begin
      s.gen <- s.gen + 1;
      decr resident
    end
    else begin
      e.slots.(!keep) <- s;
      incr keep
    end
  done;
  e.len <- !keep;
  let s = { zone = z; gen = 0 } in
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
   be byte-stable across engines, domain counts and hash-table layouts:
   sort the entries by discrete state and each antichain by the stable
   zone order. *)
let sorted_dump l =
  List.map
    (fun ((st : Semantics.state), zs) -> (st, List.sort Dbm.compare zs))
    l
  |> List.sort (fun ((a : Semantics.state), _) ((b : Semantics.state), _) ->
         Stdlib.compare
           (a.Semantics.locs, a.Semantics.env)
           (b.Semantics.locs, b.Semantics.env))

type node = {
  config : Semantics.config;
  parent : int;  (* -1 for the root *)
  via : Semantics.label option;
  slot : slot;  (* the stored zone backing this waiting entry *)
  stamp : int;  (* [slot]'s generation when the node was pushed *)
}

type waiting = { push : int -> unit; pop : unit -> int option }

let make_waiting order =
  match order with
  | Bfs ->
      let q = Queue.create () in
      { push = (fun i -> Queue.push i q); pop = (fun () -> Queue.take_opt q) }
  | Dfs | Random_dfs _ ->
      let stack = ref [] in
      {
        push = (fun i -> stack := i :: !stack);
        pop =
          (fun () ->
            match !stack with
            | [] -> None
            | i :: rest ->
                stack := rest;
                Some i);
      }

(* Both engines report through this; the witness is materialised before
   returning so the engines can use different node representations. *)
type engine_result =
  | Goal_found of step list * Dbm.t * stats
  | Space_exhausted of stats
  | Out_of_budget of stats

let witness_of nodes id =
  let rec go id acc =
    if id < 0 then acc
    else
      let n : node = Vec.get nodes id in
      go n.parent ({ via = n.via; state = n.config.Semantics.state } :: acc)
  in
  go id []

(* Sequential engine — the exact pre-parallel code path, selected by
   [~domains:1]. *)
let run_seq ~order ~budget ~abstraction ~lu_of net ~ranges ~goal ~on_store
    : engine_result * (unit -> (Semantics.state * Dbm.t list) list) =
  let t0 = Unix.gettimeofday () in
  let pack = make_packer net ranges in
  let nodes : node Vec.t = Vec.create () in
  let passed = H.create 4096 in
  let waiting = make_waiting order in
  let rng =
    match order with Random_dfs seed -> Some (Prng.create seed) | _ -> None
  in
  (* [resident] is the live passed-list population: incremented per
     stored zone, decremented when the antichain prunes one, so the
     final [stats.stored] reports zones actually resident at the end
     rather than the historical store count. *)
  let explored = ref 0 and transitions = ref 0 and resident = ref 0 in
  let lusim = ref 0 in
  let stats () =
    {
      explored = !explored;
      stored = !resident;
      transitions = !transitions;
      elapsed = Unix.gettimeofday () -. t0;
      domains = 1;
      steals = 0;
      subsumed_lusim = !lusim;
    }
  in
  let over_budget () =
    (match budget.max_states with Some m -> !explored >= m | None -> false)
    || match budget.max_seconds with
       | Some s -> Unix.gettimeofday () -. t0 > s
       | None -> false
  in
  let dump () = sorted_dump (dump_table passed []) in
  let exception Found of int * Dbm.t in
  (* States enter the passed list when pushed (not when popped): later
     duplicates are subsumed away before they ever occupy the waiting
     list.  A pushed state whose zone got pruned by a larger newcomer
     is skipped at pop time — the newcomer covers its successors. *)
  let add via parent (c : Semantics.config) =
    match goal c with
    | Some gz ->
        let id =
          Vec.push nodes { config = c; parent; via; slot = dead_slot; stamp = 0 }
        in
        raise (Found (id, gz))
    | None ->
        let e =
          entry_of lu_of passed (pack c.Semantics.state) c.Semantics.state
        in
        if subsumed_in e c.Semantics.zone then begin
          if e.lu <> Option.None then incr lusim
        end
        else begin
          (* intern the discrete state: revisits of this entry now share
             it physically, so equality short-circuits on [==] *)
          let c =
            if c.Semantics.state == e.canon then c
            else { c with Semantics.state = e.canon }
          in
          let s = store_in e c.Semantics.zone resident in
          on_store c;
          let id = Vec.push nodes { config = c; parent; via; slot = s; stamp = s.gen } in
          waiting.push id
        end
  in
  try
    add Option.None (-1) (Semantics.initial ~abstraction net);
    let continue = ref true in
    while !continue do
      match waiting.pop () with
      | None -> continue := false
      | Some id ->
          let n = Vec.get nodes id in
          if n.slot.gen = n.stamp then begin
            incr explored;
            if over_budget () then raise Exit;
            let succs =
              Array.of_list (Semantics.successors ~abstraction net n.config)
            in
            (match rng with Some g -> Prng.shuffle g succs | None -> ());
            Array.iter
              (fun (label, c') ->
                incr transitions;
                add (Some label) id c')
              succs
          end
    done;
    (Space_exhausted (stats ()), dump)
  with
  | Found (id, gz) -> (Goal_found (witness_of nodes id, gz, stats ()), dump)
  | Exit -> (Out_of_budget (stats ()), dump)

(* Parallel engine: the passed list is split into [n_shards] shards
   keyed by the packed-state hash, each an independent mutex-protected
   antichain table with its own resident counter; the subsumption probe
   and the insert happen under one lock acquisition, so two domains
   racing on comparable zones can never both store (which would
   double-count [stored] and leave a non-antichain passed list).  Each
   domain owns a deque of waiting nodes — LIFO for the owner, FIFO for
   thieves, so stolen work is old (near the root, likely large subtrees)
   and local work is cache-hot.  Termination is a global count of
   pushed-but-not-yet-expanded nodes: a domain only quits when every
   deque it probed was empty and that count is zero.

   Determinism: successor computation is a pure function of the popped
   configuration, and zone storage is monotone — a zone is dropped only
   when a superset zone is (already or concurrently) stored.  The fully
   explored passed list is therefore the set of maximal zones of the
   closure of the initial configuration under successors, independent
   of exploration order, so verdicts, WCRT suprema, final antichain
   contents and the final [stored] count all match the sequential
   engine exactly.  [explored]/[transitions] are genuinely
   schedule-dependent (two domains may both expand a zone that one of
   them later prunes) and are reported as observed. *)
module Par = struct
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

    (* owner end: newest first, keeps the working set cache-hot *)
    let pop t =
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

    (* thief end: oldest first *)
    let steal t =
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

  (* Waiting nodes carry parent pointers instead of indices into a
     shared vector: witness reconstruction needs no synchronisation. *)
  type pnode = {
    pconfig : Semantics.config;
    pparent : pnode option;
    pvia : Semantics.label option;
    pslot : slot;
    pstamp : int;
  }

  type pstop =
    | Pfound of pnode * Dbm.t
    | Pbudget
    | Perror of exn * Printexc.raw_backtrace

  exception Halt

  let n_shards = 64

  let pwitness n =
    let rec go n acc =
      match n with
      | Option.None -> acc
      | Some p ->
          go p.pparent
            ({ via = p.pvia; state = p.pconfig.Semantics.state } :: acc)
    in
    go (Some n) []

  let run ~order ~budget ~abstraction ~lu_of ~domains net ~ranges
      ~goal ~on_store =
    let t0 = Unix.gettimeofday () in
    let pack = make_packer net ranges in
    let shards =
      Array.init n_shards (fun _ ->
          { s_lock = Mutex.create (); s_table = H.create 256; s_resident = ref 0 })
    in
    let deques = Array.init domains (fun _ -> Deque.create ()) in
    let stop : pstop option Atomic.t = Atomic.make Option.None in
    let pending = Atomic.make 0 in
    let explored = Atomic.make 0 in
    let transitions = Array.make domains 0 in
    let steals = Array.make domains 0 in
    let lusim = Array.make domains 0 in
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
          halt
            (Pfound
               ( { pconfig = c; pparent = parent; pvia = via; pslot = dead_slot;
                   pstamp = 0 },
                 gz ))
      | None ->
          let key = pack c.Semantics.state in
          let sh = shards.(Packed_key.hash key land (n_shards - 1)) in
          Mutex.lock sh.s_lock;
          let e = entry_of lu_of sh.s_table key c.Semantics.state in
          if subsumed_in e c.Semantics.zone then begin
            Mutex.unlock sh.s_lock;
            if e.lu <> Option.None then lusim.(w) <- lusim.(w) + 1
          end
          else begin
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
            (* a fresh slot always starts at generation 0; by the time
               anyone dereferences [s.gen] it may already be pruned,
               which the pop-time probe detects *)
            Deque.push deques.(w)
              { pconfig = c; pparent = parent; pvia = via; pslot = s; pstamp = 0 }
          end
    in
    let process w rng (n : pnode) =
      if n.pslot.gen = n.pstamp then begin
        let e = 1 + Atomic.fetch_and_add explored 1 in
        if over_budget e then halt Pbudget;
        let succs =
          Array.of_list (Semantics.successors ~abstraction net n.pconfig)
        in
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
        | Random_dfs seed -> Some (Prng.create (seed + (31 * w) + 1))
        | Bfs | Dfs -> Option.None
      in
      try
        let rec next () =
          if Atomic.get stop <> Option.None then Option.None
          else
            match Deque.pop deques.(w) with
            | Some _ as r -> r
            | None -> (
                let stolen = ref Option.None in
                let i = ref 1 in
                while !stolen = Option.None && !i < domains do
                  (match Deque.steal deques.((w + !i) mod domains) with
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
            (Atomic.compare_and_set stop Option.None (Some (Perror (ex, bt))))
    in
    (try add 0 Option.None Option.None (Semantics.initial ~abstraction net)
     with Halt -> ());
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
        subsumed_lusim = Array.fold_left ( + ) 0 lusim;
      }
    in
    let dump () =
      sorted_dump
        (Array.fold_left (fun acc sh -> dump_table sh.s_table acc) [] shards)
    in
    match Atomic.get stop with
    | Some (Perror (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some (Pfound (n, gz)) -> (Goal_found (pwitness n, gz, stats ()), dump)
    | Some Pbudget -> (Out_of_budget (stats ()), dump)
    | None -> (Space_exhausted (stats ()), dump)
end

(* Everything certificate emission needs from a completed exploration:
   the slice that translates back to original index space, the network
   the engine actually explored (sliced, flow-refined, query-bumped —
   the per-state LU vectors must come from {e these} tables), and the
   sorted passed-list dump. *)
type snapshot = {
  snap_slice : Slice.t;
  snap_net : Network.t;
  snap_passed : (Semantics.state * Dbm.t list) list;
}

(* Core loop shared by [reach] and [explore].  [goal] maps a fresh
   configuration to its non-empty goal zone when it hits the target;
   goal checking happens at state creation time so that
   counterexamples are found as early as possible (UPPAAL does the
   same).  Returns the result, the passed-list dump thunk and the
   network as explored (after flow refinement). *)
let run ?(order = Bfs) ?(budget = no_budget) ?abstraction ?domains net ~goal
    ~on_store () =
  let abstraction =
    match abstraction with Some a -> a | None -> default_abstraction ()
  in
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* the dataflow analysis tightens the per-location L/U clock bounds
     (read by [Semantics.extrapolate]) and shrinks the variable ranges
     the packed state key allots bits to.  It rewrites only [lloc] and
     [uloc], never [k], so [ExtraM] explores the builder's bounds and
     serves as the tests' oracle for the refinement *)
  let fa = Ita_analysis.Flow.analyze net in
  let net = Ita_analysis.Flow.refine_lu fa net in
  let ranges = Ita_analysis.Flow.global_ranges fa in
  (* Under [LuSim] the antichains order zones by a◁LU simulation over
     the per-state L/U constants — resolved against the flow-refined
     [net] above, so the subsumption test and the [ExtraLU]
     extrapolation always read the same bounds *)
  let lu_of =
    match abstraction with
    | LuSim ->
        fun (st : Semantics.state) -> Some (Semantics.lu_bounds net st)
    | ExtraM | ExtraLU -> fun _ -> Option.None
  in
  let result, dump =
    if domains = 1 then
      run_seq ~order ~budget ~abstraction ~lu_of net ~ranges ~goal ~on_store
    else
      Par.run ~order ~budget ~abstraction ~lu_of ~domains net ~ranges ~goal
        ~on_store
  in
  (result, dump, net)

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

let slice_query mode ?(extra_clocks = []) net (q : Query.t) =
  let sl = Slice.make ~mode net (goal_of_query ~extra_clocks q) in
  let q' =
    if sl.Slice.identity then q
    else
      {
        Query.comp_locs =
          List.map
            (fun (ci, li) ->
              match Slice.map_comp sl ci with
              | Some ci' -> (ci', li)
              | Option.None -> assert false (* goal components are kept *))
            q.Query.comp_locs;
        guard = Slice.map_guard sl q.Query.guard;
      }
  in
  (sl, sl.Slice.net, q')

let reach ?order ?budget ?abstraction ?domains ?snap net (q : Query.t) =
  let sl, net, q = slice_query (default_slicing ()) net q in
  let net =
    List.fold_left
      (fun net (x, c) -> Network.bump_clock_bound net x c)
      net
      (Query.clock_constants net q)
  in
  let goal c =
    Semantics.zone_of_goal net c q.Query.guard ~comp_locs:q.Query.comp_locs
  in
  match
    run ?order ?budget ?abstraction ?domains net ~goal
      ~on_store:(fun _ -> ())
      ()
  with
  | Goal_found (witness, gz, stats), _, _ ->
      let witness =
        List.map
          (fun (st : step) ->
            {
              via = Option.map (Slice.unmap_label sl) st.via;
              state = Slice.unmap_state sl st.state;
            })
          witness
      in
      Reachable { witness; goal_zone = Slice.unmap_zone sl gz; stats }
  | Space_exhausted stats, dump, xnet ->
      (* the verdict is an invariant claim: surface everything a
         certificate needs while the passed list is still alive *)
      (match snap with
      | Some f ->
          f { snap_slice = sl; snap_net = xnet; snap_passed = dump () }
      | Option.None -> ());
      Unreachable stats
  | Out_of_budget stats, _, _ -> Budget_exhausted stats

let explore ?order ?budget ?abstraction ?domains ?(extra_bounds = []) ?snap
    net ~on_store =
  let net =
    List.fold_left
      (fun net (x, c) -> Network.bump_clock_bound net x c)
      net extra_bounds
  in
  match
    run ?order ?budget ?abstraction ?domains net
      ~goal:(fun _ -> Option.None)
      ~on_store ()
  with
  | Goal_found _, _, _ -> assert false
  | Space_exhausted stats, dump, xnet ->
      (match snap with
      | Some f -> f (xnet, dump ())
      | Option.None -> ());
      `Complete stats
  | Out_of_budget stats, _, _ -> `Budget_exhausted stats

let pp_stats ppf s =
  Format.fprintf ppf "explored %d, stored %d, transitions %d, %.3fs"
    s.explored s.stored s.transitions s.elapsed;
  if s.subsumed_lusim > 0 then
    Format.fprintf ppf " (lusim-subsumed %d)" s.subsumed_lusim;
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
