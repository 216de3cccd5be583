(** The serve wire protocol: line-delimited JSON requests and responses.

    One request per line, one response line per request line, in order.
    A request is a JSON object with an ["op"] member naming the query
    and an optional integer ["id"] echoed verbatim in the response (the
    handle concurrent clients use to match responses to requests):

    {v
    {"id":1,"op":"classify-valence","model":"sync","n":3,"t":1,"depth":4}
    {"id":2,"op":"sweep","model":"iis","n":3,"t":1,"depth":2}
    {"id":3,"op":"run-experiment","experiment":"E1"}
    {"id":4,"op":"stats"}
    {"id":5,"op":"shutdown"}
    v}

    Responses are one of three shapes:

    {v
    {"id":1,"status":"ok","exit":0,"output":"..."}
    {"id":1,"status":"error","code":"out-of-range","message":"..."}
    {"id":1,"status":"overloaded","reason":"queue-depth"}
    v}

    [output] holds exactly the bytes the one-shot CLI would print on
    stdout for the same query, so daemon answers diff cleanly against
    [layered classify] / [layered layers] / [layered run].  [exit]
    follows the CLI contract: 0 success, 1 failures found, 3 truncated
    by the per-request budget.

    Parameter validation applies the same lower bounds the CLI enforces
    at parse time ([n >= 2], [t >= 0], [depth >= 0]) plus serve-side
    upper caps ({!max_n}, {!max_t}, {!max_depth}) — a daemon answers
    strangers, so unlike the CLI it also refuses queries sized to hog
    the process. *)

type request =
  | Classify_valence of { model : string; n : int; t : int; depth : int }
  | Run_experiment of { id : string }
  | Sweep of { model : string; n : int; t : int; depth : int }
  | Stats_query
  | Shutdown

type error_code =
  | Parse  (** the line was not a JSON object of the documented shape *)
  | Bad_request  (** a member is missing or has the wrong type *)
  | Out_of_range  (** a parameter is outside the documented bounds *)
  | Unknown_experiment
  | Unknown_model
  | Internal  (** the handler failed; the daemon itself keeps serving *)
  | Timeout
      (** the server gave up waiting — a stalled connection holding half
          a request line past the idle deadline, never a compute result
          (deadline-tripped compute is a truncated [ok], exit 3) *)
  | Cancelled
      (** the request's fault domain was cancelled before a result was
          committed — its client disconnected, an admission fair-share
          eviction revoked it, or an injected cancellation tripped its
          budget token.  Scoped strictly to the one request: the daemon,
          its caches and every other in-flight request are unaffected *)

val error_code_name : error_code -> string

type response =
  | Resp_ok of { id : int option; exit_code : int; output : string }
  | Resp_error of { id : int option; code : error_code; message : string }
  | Resp_overloaded of {
      id : int option;
      reason : [ `Queue | `Memory | `Client ];
          (** [`Queue]: global queue depth; [`Memory]: heap watermark;
              [`Client]: this connection alone is past its fair-share
              in-flight cap ([per-client] on the wire) — other clients
              are still being admitted *)
      retry_after_s : float option;
          (** the server's backoff suggestion ([retry-after] on the
              wire); a resilient client sleeps this long and replays
              instead of treating shedding as failure *)
    }

(** Serve-side parameter caps (inclusive). *)

val max_n : int
val max_t : int
val max_depth : int

(** Longest accepted request line, newline excluded.  A longer line is
    answered with a [Parse] error and the connection is closed. *)
val max_line_bytes : int

(** [decode_request line] parses and validates one request line.
    [Ok (id, req)] carries the echoed request id; [Error (id, code,
    message)] still carries the id when the line parsed far enough to
    have one, so even a rejection can be matched by the client. *)
val decode_request :
  string -> (int option * request, int option * error_code * string) result

val encode_request : ?id:int -> request -> string
val encode_response : response -> string

(** [decode_response line] parses a response line — the client half of
    the codec, also used by the round-trip tests. *)
val decode_response : string -> (response, string) result

(** The result-cache key for a request: [Some] for the compute queries
    (identical keys must yield byte-identical responses), [None] for
    [Stats_query] and [Shutdown], which are never cached. *)
val cache_key : request -> string option
