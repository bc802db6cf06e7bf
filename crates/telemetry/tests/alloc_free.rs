//! Proves the recording hot path is allocation-free after warm-up.
//!
//! The "zero overhead when disabled" contract has two halves: a
//! disabled sink skips all trace formatting behind one boolean, and the
//! metric updates that always run are plain array writes. Both halves
//! must stay off the allocator once the histograms exist — this is what
//! lets the recorder sit inside the per-frame control loop.

use icoil_telemetry::{FrameEvent, MemorySink, Recorder, SolveEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of the calling thread only: the tests in this
/// file run on parallel threads (and libtest's controller allocates on
/// its own), so a process-wide count would charge one test with
/// another's allocations.
struct CountingAlloc;

thread_local! {
    // const-initialized and without a destructor, so touching it never
    // allocates (which would recurse into the allocator)
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // try_with: allocations during thread teardown go uncounted
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn event(frame: usize) -> FrameEvent<'static> {
    FrameEvent {
        frame,
        time: frame as f64 * 0.1,
        mode: "CO",
        raw_mode: "CO",
        uncertainty: 0.4,
        complexity: 1.2e5,
        ratio: 3.3e-6,
        perception_s: 1.5e-5,
        il_s: 8.0e-5,
        hsa_s: 6.0e-7,
        co_s: 3.0e-4,
        total_s: 4.0e-4,
        emergency: false,
        safe_brake: false,
        solve: Some(SolveEvent {
            scp_passes: 2,
            admm_iterations: 80 + frame as u64,
            reg_bumps: 0,
            symbolic_cache_hits: 0,
            symbolic_rebuilds: 0,
            cold_restart: false,
            numerical_error: false,
        }),
    }
}

/// The allocations this thread performs over `frames` calls of `body`.
fn allocations_during(frames: usize, mut body: impl FnMut(usize)) -> usize {
    let before = allocations();
    for i in 0..frames {
        body(i);
    }
    allocations() - before
}

#[test]
fn disabled_recorder_frames_are_allocation_free() {
    let mut recorder = Recorder::new();
    // warm-up: first observations size the histogram bucket vectors
    recorder.frame(&event(0));
    recorder.frame(&event(1));

    let count = allocations_during(250, |i| recorder.frame(&event(i)));
    assert_eq!(
        count, 0,
        "a disabled recorder allocated {count} times in 250 frames"
    );
}

#[test]
fn tracing_recorder_reuses_its_line_buffer() {
    let (sink, lines) = MemorySink::new();
    let mut recorder = Recorder::with_sink(Box::new(sink));
    // warm-up sizes the histograms and the shared line buffer
    recorder.frame(&event(0));
    recorder.frame(&event(1));

    // The MemorySink itself stores each line (two allocations: the
    // String and the Vec growth), so "no formatting overhead" here means
    // a small constant per frame, not zero: the JSON assembly itself
    // must reuse the recorder's line buffer. Allow the sink's own
    // per-line cost with margin and nothing more.
    let frames = 50;
    let count = allocations_during(frames, |i| recorder.frame(&event(i)));
    assert!(
        count <= 4 * frames,
        "tracing allocated {count} times per {frames} frames — the line buffer is not \
         being reused"
    );
    assert!(lines.lock().unwrap().len() >= frames);
}
