(** The one timing sampler behind every repeated-run measurement: wall
    times on {!Clock}, reported as median and quartiles, never best-of. *)

type summary = { median : float; q1 : float; q3 : float; n : int; total : float }
(** [total] is the sum of the samples: the window a rep loop covers. *)

val quantile : float array -> float -> float
(** [quantile xs p], [p] in \[0, 1\]: linear interpolation between the
    closest ranks of the sorted samples ([p = 1] is the maximum); [nan]
    on no samples.  [xs] is not modified. *)

val summarize : float array -> summary

val time : ?after_warmup:(unit -> unit) -> reps:int -> (unit -> 'a) -> summary * 'a
(** One untimed warmup call of [f], then [after_warmup ()] (where a
    caller resets telemetry, so it covers exactly the timed reps), then
    [reps] timed calls.  Returns the summary of the rep walls in seconds
    and the last rep's result.
    @raise Invalid_argument if [reps < 1]. *)

val to_json : ?work:float -> summary -> Json_out.t
(** The [spread] object beside a reported median: [{"q1", "q3", "n"}].
    With [~work], the spread of the rate [work /. wall] that a caller
    reports as [work /. median]. *)
