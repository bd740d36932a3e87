(** Plain-text interchange format for topologies.

    One edge per line: [u v] or, with a relationship label,
    [u v c2p] (u customer of v), [u v p2c] (u provider of v) or [u v p2p].
    Lines starting with ['#'] and blank lines are ignored. Node count is
    [1 + max node id] unless a [# nodes: N] header raises it. *)

val max_nodes : int
(** Largest node count a document may declare or imply (1,000,000): a
    larger header, or a node id [>= max_nodes], is a line-numbered
    error. *)

val parse : string -> (Relations.t, string) result
(** Parse a document. Errors carry a 1-based line number and reason. *)

val parse_graph : string -> (Graph.t, string) result
(** Parse ignoring relationship labels. *)

val print : Relations.t -> string
(** Render with a [# nodes:] header; inverse of {!parse} up to formatting. *)

val print_graph : Graph.t -> string
