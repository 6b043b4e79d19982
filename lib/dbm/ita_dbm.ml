(* The zone substrate: [Dbm] and its bound encoding, which [Dbm]
   defines and this alias publishes under its own name. *)

module Dbm = Dbm
module Bound = Dbm.Bound
