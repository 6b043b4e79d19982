type t = {
  automata : Automaton.t array;
  clock_names : string array;
  var_names : string array;
  var_ranges : (int * int) array;
  var_init : int array;
  channels : Channel.t array;
  k : int array;
  floor : int array;
  lloc : int array array array;
  uloc : int array array array;
  active : bool array array array;
  pinned : bool array;
}

exception Invalid_model of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_model s)) fmt
let n_clocks net = Array.length net.clock_names - 1
let n_components net = Array.length net.automata

let bump_clock_bound net x c =
  let k = Array.copy net.k in
  k.(x) <- max k.(x) c;
  let floor = Array.copy net.floor in
  floor.(x) <- max floor.(x) c;
  let pinned = Array.copy net.pinned in
  pinned.(x) <- true;
  { net with k; floor; pinned }

let live_clock net locs x =
  net.pinned.(x)
  ||
  let n = Array.length locs and i = ref 0 in
  while !i < n && not net.active.(!i).(locs.(!i)).(x) do
    incr i
  done;
  !i < n

let index_of name arr =
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name && !found < 0 then found := i) arr;
  if !found < 0 then raise Not_found else !found

let component_index net name =
  index_of name (Array.map (fun (a : Automaton.t) -> a.name) net.automata)

let clock_index net name = index_of name net.clock_names
let var_index net name = index_of name net.var_names

let pp_locs net ppf locs =
  Array.iteri
    (fun i l ->
      if i > 0 then Format.fprintf ppf " | ";
      let a = net.automata.(i) in
      Format.fprintf ppf "%s.%s" a.Automaton.name
        (Automaton.location a l).Automaton.loc_name)
    locs

module Builder = struct
  type network = t

  type b = {
    mutable clocks : string list;  (* reversed *)
    mutable vars : (string * int * int * int) list;  (* reversed *)
    mutable chans : Channel.t list;  (* reversed *)
    mutable autos : Automaton.t list;  (* reversed *)
  }

  let create () = { clocks = [ "t0" ]; vars = []; chans = []; autos = [] }

  let clock b name =
    if List.mem name b.clocks then invalid "duplicate clock %s" name;
    b.clocks <- name :: b.clocks;
    List.length b.clocks - 1

  let int_var b name ~lo ~hi ~init =
    if List.exists (fun (n, _, _, _) -> n = name) b.vars then
      invalid "duplicate variable %s" name;
    if not (lo <= init && init <= hi) then
      invalid "variable %s: init %d outside [%d, %d]" name init lo hi;
    b.vars <- (name, lo, hi, init) :: b.vars;
    List.length b.vars - 1

  let channel b name kind ~urgent =
    if List.exists (fun (c : Channel.t) -> c.name = name) b.chans then
      invalid "duplicate channel %s" name;
    b.chans <- { Channel.name; kind; urgent } :: b.chans;
    List.length b.chans - 1

  let add_automaton b a = b.autos <- a :: b.autos

  (* Static checks: see the interface. *)
  let validate_sync ~channels (a : Automaton.t) =
    let check_edge (e : Automaton.edge) =
      let has_clock_guard = e.guard.Guard.clocks <> [] in
      match e.sync with
      | Automaton.NoSync -> ()
      | Automaton.Send c | Automaton.Recv c ->
          let ch : Channel.t = channels.(c) in
          if ch.urgent && has_clock_guard then
            invalid "%s: clock guard on urgent channel %s" a.name ch.name;
          if
            ch.kind = Channel.Broadcast && has_clock_guard
            && e.sync = Automaton.Recv c
          then
            invalid "%s: clock guard on broadcast receiver %s" a.name ch.name
    in
    Array.iter check_edge a.edges

  let build ?(validate = true) b =
    let clock_names = Array.of_list (List.rev b.clocks) in
    let vars = Array.of_list (List.rev b.vars) in
    let var_names = Array.map (fun (n, _, _, _) -> n) vars in
    let var_ranges = Array.map (fun (_, lo, hi, _) -> (lo, hi)) vars in
    let var_init = Array.map (fun (_, _, _, i) -> i) vars in
    let channels = Array.of_list (List.rev b.chans) in
    let automata = Array.of_list (List.rev b.autos) in
    if validate then Array.iter (validate_sync ~channels) automata;
    (* Maximal constants per clock, over all guards, invariants and
       clock-reset values. *)
    let k = Array.make (Array.length clock_names) 0 in
    let scan_guard g =
      for x = 1 to Array.length clock_names - 1 do
        k.(x) <- max k.(x) (Guard.max_constant var_ranges g x)
      done
    in
    let scan_update (u : Update.t) =
      let scan_assign = function
        | Update.Reset_clock (x, e) ->
            let lo, hi = Expr.interval var_ranges e in
            k.(x) <- max k.(x) (max (abs lo) (abs hi))
        | Update.Set_var _ -> ()
      in
      List.iter scan_assign u
    in
    let scan_automaton (a : Automaton.t) =
      Array.iter (fun (l : Automaton.location) -> scan_guard l.invariant)
        a.locations;
      Array.iter
        (fun (e : Automaton.edge) ->
          scan_guard e.guard;
          scan_update e.update)
        a.edges
    in
    Array.iter scan_automaton automata;
    (* every location starts at the classical constants, a sound L and
       U row, with every clock active; [Flow.refine_lu] computes the
       per-location tables.  The rows are shared and never mutated. *)
    let n_clocks = Array.length clock_names in
    let rows row =
      Array.map
        (fun (a : Automaton.t) ->
          Array.make (Array.length a.Automaton.locations) row)
        automata
    in
    let k_rows = rows k in
    {
      automata;
      clock_names;
      var_names;
      var_ranges;
      var_init;
      channels;
      k;
      floor = Array.make n_clocks 0;
      lloc = k_rows;
      uloc = k_rows;
      active = rows (Array.make n_clocks true);
      pinned = Array.make n_clocks false;
    }
end
