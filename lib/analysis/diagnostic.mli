(** Structured findings of the static analyzer.

    A diagnostic names the pass that produced it, a severity, the
    precise model site it anchors to (clock, variable, channel,
    automaton, location or edge) and a human message with an optional
    suggested fix.  Sites are index-based so that a caller holding
    richer information — the [.ta] elaborator keeps source positions —
    can resolve them to [file:line:col] through the [resolve] hook of
    {!pp}. *)

open Ita_ta

type severity = Hint | Info | Warning | Error

type site =
  | Network_site
  | Clock_site of Guard.clock
  | Var_site of Expr.var
  | Channel_site of Channel.id
  | Automaton_site of int
  | Location_site of { comp : int; loc : int }
  | Edge_site of { comp : int; edge : int }

(** One lint pass; {!Lint.run} runs them all. *)
type pass =
  | Unused_clock  (** clock never tested by any guard or invariant *)
  | Never_reset_clock  (** clock tested but reset on no edge *)
  | Dead_var  (** integer variable never read *)
  | Range_overflow  (** update can leave a declared variable range *)
  | Unreachable_location  (** no edge path from the initial location *)
  | Invariant_misuse  (** lower-bound / equality / data invariants *)
  | Urgent_clock_guard  (** clock guard on an urgent or broadcast sync *)
  | Channel_peer  (** sends without receivers and the like *)
  | Committed_cycle  (** discrete livelock through committed locations *)
  | Zeno_cycle  (** cycle resetting no clock, crossing no lower bound *)
  | Dead_edge  (** edge can never fire under the interval analysis *)
  | Trivial_guard  (** non-trivial data guard that always evaluates true *)
  | Sync_write_race  (** write-write collision on a co-enabled sync pair *)
  | Outside_cone
      (** component outside the backward cone of influence of the
          observed query — it can neither block, force nor retime
          anything the query can see ({!Slice}); only emitted when
          {!Lint.run} is given [observed_comps] *)
  | Merged_query_clock
      (** a clock the query observes that quasi-equal merging
          ([CoiMerge]) folds into another clock with the identical
          reset pattern; only emitted when {!Lint.run} is given
          [observed_clocks] and the clock is not pinned *)

type t = {
  pass : pass;
  severity : severity;
  site : site;
  message : string;
  fix : string option;
}

val pass_name : pass -> string
(** Kebab-case, as printed inside the [severity[pass-name]] tag. *)

val pass_id : pass -> int
(** Stable numeric id; the deterministic output order ties on it. *)

val severity_name : severity -> string

val compare_severity : severity -> severity -> int
(** [Hint < Info < Warning < Error]. *)

val worst : t list -> severity option
(** The highest severity present; [None] on a clean report. *)

val count : severity -> t list -> int

val by_pass : pass -> t list -> t list

val sort : t list -> t list
(** Stable order: severity descending, then site (component-major). *)

val site_key : site -> int * int * int * int
(** Component-major site order, for callers composing their own
    deterministic output orders. *)

val pp_site : Network.t -> Format.formatter -> site -> unit
(** ["BUS"], ["BUS.claim"], ["BUS: claim -> run"], ["clock x"], ... *)

val pp :
  ?resolve:(site -> string option) ->
  Network.t ->
  Format.formatter ->
  t ->
  unit
(** [error[urgent-clock-guard] BUS: claim -> run: ...message...
    (fix: ...)], prefixed by [resolve site] (e.g. [model.ta:12:3:])
    when the hook produces a position. *)

val json_string : string -> string
(** A JSON string literal: quoted, with quotes, backslashes and control
    characters escaped.  UTF-8 text passes through unchanged; a byte
    that is not part of a valid UTF-8 sequence becomes [�], so the
    result is valid JSON whatever the input bytes. *)
