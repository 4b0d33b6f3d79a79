//! [`FigureRecorder`] — the bridge from observability events to the
//! `vine-simcore::trace` sinks backing the paper's figures.
//!
//! The engine used to poke each sink directly; now it emits typed spans,
//! instants, and counter samples once, and this recorder folds them into
//! the figure sinks. The mapping:
//!
//! * counter [`counter::RUNNING`] / [`counter::WAITING`] → the Fig 12/15
//!   concurrency time-series;
//! * counter [`counter::CACHE_USED`] on worker lane `w+1` → the Fig 11
//!   per-worker cache-occupancy series;
//! * [`category::TASK`] spans → the Fig 13 Gantt trace (entity =
//!   `track - 1`, tag from the `"tag"` attribute) and the Fig 8 task-time
//!   histogram;
//! * [`category::TRANSFER`] instants (attrs `src`, `dst`, `bytes`) → the
//!   Fig 7 transfer matrix;
//! * [`category::WORKER`] instants named [`CACHE_OVERFLOW`] → the
//!   cache-failure event list.

use vine_simcore::trace::{IntervalTrace, LogHistogram, TimeSeries, TransferMatrix};
use vine_simcore::SimTime;

use crate::recorder::Recorder;
use crate::span::{category, counter, InstantEvent, Span};

/// Name of the worker-lifecycle instant marking a cache-overflow kill.
pub const CACHE_OVERFLOW: &str = "cache.overflow";

/// The figure sinks a run hands back, in the shape `RunResult` carries.
/// The default is the empty set a run that never started reports.
#[derive(Clone, Debug, Default)]
pub struct FigureSinks {
    /// Tasks-running step series (Figs 12, 15).
    pub running_series: TimeSeries,
    /// Tasks-waiting step series (Fig 12).
    pub waiting_series: TimeSeries,
    /// Per-worker busy intervals (Fig 13), when enabled.
    pub gantt: Option<IntervalTrace>,
    /// Node-pair transfer bytes (Fig 7), when enabled.
    pub transfers: Option<TransferMatrix>,
    /// Per-worker cache occupancy over time (Fig 11), when enabled.
    pub cache_series: Option<Vec<TimeSeries>>,
    /// Log-binned task wall times (Fig 8), when enabled.
    pub task_time_hist: Option<LogHistogram>,
    /// `(worker, time)` of each cache-overflow kill.
    pub cache_failures: Vec<(usize, SimTime)>,
}

/// A [`Recorder`] that folds events into [`FigureSinks`].
#[derive(Clone, Debug)]
pub struct FigureRecorder {
    sinks: FigureSinks,
}

impl FigureRecorder {
    /// A recorder with the selected sinks enabled. `transfer_nodes` /
    /// `cache_workers` size the matrix and per-worker series
    /// (`Some(node or worker count)` enables them).
    pub fn new(
        gantt: bool,
        transfer_nodes: Option<usize>,
        cache_workers: Option<usize>,
        task_times: bool,
    ) -> Self {
        FigureRecorder {
            sinks: FigureSinks {
                running_series: TimeSeries::new(),
                waiting_series: TimeSeries::new(),
                gantt: gantt.then(IntervalTrace::new),
                transfers: transfer_nodes.map(TransferMatrix::new),
                cache_series: cache_workers.map(|n| vec![TimeSeries::new(); n]),
                // Same binning the engine always used for Fig 8.
                task_time_hist: task_times.then(|| LogHistogram::new(0.0625, 16)),
                cache_failures: Vec::new(),
            },
        }
    }

    /// Finish recording and hand back the sinks.
    pub fn into_sinks(self) -> FigureSinks {
        self.sinks
    }

    /// True if task spans feed an enabled sink (Gantt or histogram) —
    /// instrumentation skips building spans otherwise.
    pub fn wants_task_spans(&self) -> bool {
        self.sinks.gantt.is_some() || self.sinks.task_time_hist.is_some()
    }

    /// True if transfer instants feed the matrix.
    pub fn wants_transfers(&self) -> bool {
        self.sinks.transfers.is_some()
    }

    /// True if cache-occupancy counters feed per-worker series.
    pub fn wants_cache(&self) -> bool {
        self.sinks.cache_series.is_some()
    }
}

impl Recorder for FigureRecorder {
    fn span(&mut self, span: Span) {
        if span.category != category::TASK {
            return;
        }
        if let Some(h) = &mut self.sinks.task_time_hist {
            h.record(span.dur_us() as f64 / 1e6);
        }
        if let Some(g) = &mut self.sinks.gantt {
            if span.track > 0 {
                let tag = span.attr_u64("tag").unwrap_or(0) as u32;
                g.push(
                    span.track as usize - 1,
                    SimTime::from_micros(span.start_us),
                    SimTime::from_micros(span.end_us),
                    tag,
                );
            }
        }
    }

    fn instant(&mut self, ev: InstantEvent) {
        match ev.category {
            category::TRANSFER => {
                if let Some(m) = &mut self.sinks.transfers {
                    if let (Some(src), Some(dst), Some(bytes)) =
                        (ev.attr_u64("src"), ev.attr_u64("dst"), ev.attr_u64("bytes"))
                    {
                        m.add(src as usize, dst as usize, bytes);
                    }
                }
            }
            category::WORKER if ev.name == CACHE_OVERFLOW && ev.track > 0 => {
                self.sinks
                    .cache_failures
                    .push((ev.track as usize - 1, SimTime::from_micros(ev.t_us)));
            }
            _ => {}
        }
    }

    fn counter(&mut self, name: &'static str, track: u32, t_us: u64, value: f64) {
        let t = SimTime::from_micros(t_us);
        match name {
            counter::RUNNING => self.sinks.running_series.push(t, value),
            counter::WAITING => self.sinks.waiting_series.push(t, value),
            counter::CACHE_USED => {
                if let Some(series) = &mut self.sinks.cache_series {
                    if track > 0 {
                        if let Some(s) = series.get_mut(track as usize - 1) {
                            s.push(t, value);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{worker_track, Attr};

    fn task_span(w: usize, start: u64, end: u64, tag: u64) -> Span {
        Span {
            name: format!("t{start}"),
            category: category::TASK,
            start_us: start,
            end_us: end,
            track: worker_track(w),
            attrs: vec![Attr::u64("tag", tag)],
        }
    }

    #[test]
    fn task_spans_feed_gantt_and_histogram() {
        let mut r = FigureRecorder::new(true, None, None, true);
        r.span(task_span(0, 0, 2_000_000, 1));
        r.span(task_span(1, 500, 1_000_500, 0));
        let s = r.into_sinks();
        let g = s.gantt.unwrap();
        assert_eq!(g.intervals().len(), 2);
        assert_eq!(g.intervals()[0].entity, 0);
        assert_eq!(g.intervals()[0].tag, 1);
        assert_eq!(g.intervals()[0].end, SimTime::from_secs(2));
        assert_eq!(s.task_time_hist.unwrap().total(), 2);
    }

    #[test]
    fn counters_feed_the_step_series() {
        let mut r = FigureRecorder::new(false, None, Some(2), false);
        r.counter(counter::RUNNING, 0, 0, 1.0);
        r.counter(counter::RUNNING, 0, 10, 2.0);
        r.counter(counter::WAITING, 0, 5, 4.0);
        r.counter(counter::CACHE_USED, worker_track(1), 7, 512.0);
        let s = r.into_sinks();
        assert_eq!(s.running_series.len(), 2);
        assert_eq!(s.running_series.max_value(), 2.0);
        assert_eq!(s.waiting_series.last().unwrap().1, 4.0);
        let cache = s.cache_series.unwrap();
        assert!(cache[0].is_empty());
        assert_eq!(cache[1].last().unwrap().1, 512.0);
    }

    #[test]
    fn transfer_instants_fill_the_matrix() {
        let mut r = FigureRecorder::new(false, Some(4), None, false);
        r.instant(InstantEvent {
            name: "xfer".into(),
            category: category::TRANSFER,
            t_us: 9,
            track: 0,
            attrs: vec![
                Attr::u64("src", 0),
                Attr::u64("dst", 2),
                Attr::u64("bytes", 4096),
            ],
        });
        let m = r.into_sinks().transfers.unwrap();
        assert_eq!(m.get(0, 2), 4096);
        assert_eq!(m.total(), 4096);
    }

    #[test]
    fn cache_overflow_instants_become_failures() {
        let mut r = FigureRecorder::new(false, None, None, false);
        r.instant(InstantEvent {
            name: CACHE_OVERFLOW.into(),
            category: category::WORKER,
            t_us: 1_000_000,
            track: worker_track(3),
            attrs: vec![],
        });
        let s = r.into_sinks();
        assert_eq!(s.cache_failures, vec![(3, SimTime::from_secs(1))]);
    }

    #[test]
    fn disabled_sinks_ignore_events() {
        let mut r = FigureRecorder::new(false, None, None, false);
        r.span(task_span(0, 0, 10, 0));
        r.instant(InstantEvent {
            name: "xfer".into(),
            category: category::TRANSFER,
            t_us: 0,
            track: 0,
            attrs: vec![
                Attr::u64("src", 0),
                Attr::u64("dst", 1),
                Attr::u64("bytes", 1),
            ],
        });
        let s = r.into_sinks();
        assert!(s.gantt.is_none() && s.transfers.is_none() && s.task_time_hist.is_none());
        assert!(s.running_series.is_empty());
    }
}
