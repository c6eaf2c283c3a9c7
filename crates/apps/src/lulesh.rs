//! LULESH — Livermore unstructured Lagrangian explicit shock hydrodynamics
//! proxy, modelling a Sedov blast on a 3D hexahedral mesh.
//!
//! This is a compact staggered-grid explicit hydro code with the structure
//! the paper's evaluation needs: a point energy deposit at the origin drives
//! a pressure wave outward through element-centred thermodynamics (energy,
//! pressure, artificial viscosity) and node-centred kinematics (forces,
//! velocities, positions). The paper approximates the two most expensive
//! kernels, `CalcHourglassControlForElems` and
//! `CalcFBHourglassForceForElems`; both are per-element regions here:
//!
//! * **hourglass control** — derives each element's hourglass damping
//!   coefficient from its volume and sound speed;
//! * **FB hourglass force** — turns the antisymmetric (hourglass-mode)
//!   part of the element's nodal velocities into a damping force.
//!
//! All other kernels (stress force, node gather + integration, EOS update)
//! run accurately every step, as in the paper.
//!
//! QoI: the final origin energy (Table 1).

use crate::common::{
    eval_key, scoped_inputs, AppResult, Benchmark, LaunchParams, Prepared, QoI, RunAccumulator,
};
use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, LaunchConfig};
use hpac_core::exec::{approx_parallel_for_opts, ExecOptions, RegionBody};
use hpac_core::lane;
use hpac_core::region::{ApproxRegion, RegionError};
use std::sync::Arc;

/// Configuration for the LULESH proxy.
#[derive(Debug, Clone, Copy)]
pub struct Lulesh {
    /// Elements per dimension (elements = edge³, nodes = (edge+1)³).
    pub edge: usize,
    /// Explicit timesteps.
    pub steps: usize,
    /// Initial origin energy (the Sedov deposit).
    pub e0: f64,
    /// Hourglass damping coefficient.
    pub hgcoef: f64,
    /// Fixed timestep.
    pub dt: f64,
}

impl Default for Lulesh {
    fn default() -> Self {
        Lulesh {
            edge: 28,
            steps: 12,
            e0: 1.0,
            hgcoef: 3.0,
            dt: 4.0e-5,
        }
    }
}

/// LULESH's prepared inputs: the undeformed mesh — connectivity, lumped
/// masses, reference volumes and initial node positions. A pure function of
/// `edge`; a run never writes it.
pub struct Topology {
    pub edge: usize,
    pub n_elems: usize,
    pub n_nodes: usize,
    /// Node ids of each element's 8 corners (x-fastest corner order).
    pub corners: Vec<[usize; 8]>,
    /// For each node, (element, corner) pairs that touch it.
    pub node_elems: Vec<Vec<(usize, usize)>>,
    pub mass: Vec<f64>,
    pub vol0: Vec<f64>,
    /// Initial node positions, flattened `[x, y, z]` rows.
    pub pos0: Vec<f64>,
}

impl Prepared for Topology {
    fn approx_bytes(&self) -> usize {
        // Each node's incidence list is its own allocation of up to 8 pairs.
        let incidences: usize = self.node_elems.iter().map(|v| 24 + v.capacity() * 16).sum();
        self.corners.len() * 64
            + incidences
            + (self.mass.len() + self.vol0.len() + self.pos0.len()) * 8
    }
}

/// The mesh a run evolves: the shared [`Topology`] plus this run's mutable
/// simulation state.
///
/// Each of the five per-timestep bodies borrows the mesh mutably for its
/// own launch. Vector-valued fields are flattened `[x, y, z]` rows — see
/// [`get3`] / [`set3`].
pub struct Mesh {
    pub topo: Arc<Topology>,
    // Node-centred state.
    pub pos: Vec<f64>,
    pub vel: Vec<f64>,
    pub force: Vec<f64>,
    // Element-centred state.
    pub energy: Vec<f64>,
    pub pressure: Vec<f64>,
    pub visc: Vec<f64>,
    pub volume: Vec<f64>,
    /// Volume change of the last EOS update (feeds the next viscosity calc).
    pub delv: Vec<f64>,
    // Per-element force contributions (stress + hourglass).
    pub stress_f: Vec<f64>,
    pub hg_f: Vec<f64>,
    // Hourglass control coefficients (output of the first approx kernel).
    pub hg_coef: Vec<f64>,
}

/// Read row `i` of a flattened `[f64; 3]` field.
pub fn get3(f: &[f64], i: usize) -> [f64; 3] {
    [f[3 * i], f[3 * i + 1], f[3 * i + 2]]
}

/// Write row `i` of a flattened `[f64; 3]` field.
pub fn set3(f: &mut [f64], i: usize, v: [f64; 3]) {
    f[3 * i] = v[0];
    f[3 * i + 1] = v[1];
    f[3 * i + 2] = v[2];
}

/// Corner offsets in x-fastest order.
const CORNER_OFFS: [[usize; 3]; 8] = [
    [0, 0, 0],
    [1, 0, 0],
    [0, 1, 0],
    [1, 1, 0],
    [0, 0, 1],
    [1, 0, 1],
    [0, 1, 1],
    [1, 1, 1],
];

/// Stress force sign for corner `c` in direction `d` (outward push).
fn stress_sign(c: usize, d: usize) -> f64 {
    if CORNER_OFFS[c][d] == 1 {
        1.0
    } else {
        -1.0
    }
}

/// Hourglass-mode sign for corner `c` (checkerboard pattern).
fn hg_sign(c: usize) -> f64 {
    let o = CORNER_OFFS[c];
    if (o[0] + o[1] + o[2]).is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

impl Lulesh {
    /// The undeformed mesh, keyed by `edge` — the only field it depends on
    /// (`e0` seeds the per-run energy field; `steps`, `hgcoef` and `dt`
    /// drive the time loop).
    pub fn inputs(&self) -> Arc<Topology> {
        scoped_inputs(
            || eval_key("LULESH", &[self.edge as u64]),
            || Topology::new(self.edge),
        )
    }
}

impl Topology {
    pub fn new(edge: usize) -> Self {
        let nn = edge + 1;
        let n_elems = edge * edge * edge;
        let n_nodes = nn * nn * nn;
        let h = 1.0 / edge as f64;

        let node_id = |x: usize, y: usize, z: usize| (z * nn + y) * nn + x;
        let mut corners = Vec::with_capacity(n_elems);
        for z in 0..edge {
            for y in 0..edge {
                for x in 0..edge {
                    let mut c = [0usize; 8];
                    for (k, off) in CORNER_OFFS.iter().enumerate() {
                        c[k] = node_id(x + off[0], y + off[1], z + off[2]);
                    }
                    corners.push(c);
                }
            }
        }
        let mut node_elems = vec![Vec::new(); n_nodes];
        for (e, cs) in corners.iter().enumerate() {
            for (k, &n) in cs.iter().enumerate() {
                node_elems[n].push((e, k));
            }
        }

        let mut pos0 = Vec::with_capacity(3 * n_nodes);
        for z in 0..nn {
            for y in 0..nn {
                for x in 0..nn {
                    pos0.extend_from_slice(&[x as f64 * h, y as f64 * h, z as f64 * h]);
                }
            }
        }

        let vol0 = vec![h * h * h; n_elems];
        let mut mass = vec![0.0; n_nodes];
        for cs in &corners {
            for &n in cs {
                mass[n] += h * h * h / 8.0;
            }
        }

        Topology {
            edge,
            n_elems,
            n_nodes,
            corners,
            node_elems,
            mass,
            vol0,
            pos0,
        }
    }
}

impl Mesh {
    pub fn new(cfg: &Lulesh) -> Self {
        let topo = cfg.inputs();
        let (n_elems, n_nodes) = (topo.n_elems, topo.n_nodes);
        let mut energy = vec![0.0; n_elems];
        energy[0] = cfg.e0; // Sedov deposit at the origin element.

        Mesh {
            pos: topo.pos0.clone(),
            vel: vec![0.0; 3 * n_nodes],
            force: vec![0.0; 3 * n_nodes],
            energy,
            pressure: vec![0.0; n_elems],
            visc: vec![0.0; n_elems],
            volume: topo.vol0.clone(),
            delv: vec![0.0; n_elems],
            stress_f: vec![0.0; 3 * n_elems],
            hg_f: vec![0.0; 3 * n_elems],
            hg_coef: vec![0.0; 3 * n_elems],
            topo,
        }
    }

    /// Element volume from the current node positions (parallelepiped
    /// spanned by the three corner edges — exact for our initially
    /// rectilinear mesh and a good proxy under small deformation).
    pub fn elem_volume(&self, e: usize) -> f64 {
        let c = &self.topo.corners[e];
        let p0 = get3(&self.pos, c[0]);
        let a = sub(get3(&self.pos, c[1]), p0);
        let b = sub(get3(&self.pos, c[2]), p0);
        let d = sub(get3(&self.pos, c[4]), p0);
        (a[0] * (b[1] * d[2] - b[2] * d[1]) - a[1] * (b[0] * d[2] - b[2] * d[0])
            + a[2] * (b[0] * d[1] - b[1] * d[0]))
            .abs()
    }

    /// Mean corner velocity of an element, per direction.
    fn mean_corner_vel(&self, e: usize) -> [f64; 3] {
        let mut m = [0.0; 3];
        for &n in &self.topo.corners[e] {
            let v = get3(&self.vel, n);
            for (d, md) in m.iter_mut().enumerate() {
                *md += v[d];
            }
        }
        for v in &mut m {
            *v /= 8.0;
        }
        m
    }

    /// Hourglass-mode velocity amplitude of an element, per direction.
    fn hg_mode_vel(&self, e: usize) -> [f64; 3] {
        let mut m = [0.0; 3];
        for (k, &n) in self.topo.corners[e].iter().enumerate() {
            let s = hg_sign(k);
            let v = get3(&self.vel, n);
            for (d, md) in m.iter_mut().enumerate() {
                *md += s * v[d];
            }
        }
        for v in &mut m {
            *v /= 8.0;
        }
        m
    }
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

/// Approximated kernel 1: `CalcHourglassControlForElems` — per-element
/// hourglass damping coefficient and the artificial viscosity `q` that
/// gates shock energy exchange. (Real LULESH computes `q` in the
/// monotonic-Q kernels; folding it into the hourglass-control region keeps
/// the proxy at two approximated element kernels, as the paper evaluates,
/// while making their outputs load-bearing for the blast QoI.)
struct HgControlBody<'a> {
    mesh: &'a mut Mesh,
    hgcoef: f64,
    dt: f64,
}

impl RegionBody for HgControlBody<'_> {
    fn in_dim(&self) -> usize {
        4
    }

    fn out_dim(&self) -> usize {
        3
    }

    fn inputs(&self, e: usize, buf: &mut [f64]) {
        buf[0] = self.mesh.volume[e] / self.mesh.topo.vol0[e];
        buf[1] = self.mesh.energy[e];
        buf[2] = self.mesh.pressure[e];
        buf[3] = self.mesh.delv[e] / self.mesh.topo.vol0[e];
    }

    fn compute(&self, e: usize, out: &mut [f64]) {
        let m = &self.mesh;
        let vol = m.volume[e];
        let dens = m.topo.vol0[e] / vol.max(1e-12);
        // Sound speed from the ideal-gas EOS; the coefficient scales with
        // rho * c * characteristic area (standard Flanagan-Belytschko).
        let ss = ((m.pressure[e] + 1e-12) / dens.max(1e-12)).sqrt().max(1e-6);
        let length = vol.cbrt();
        let coef = self.hgcoef * dens * ss * length * length;
        // Artificial viscosity: quadratic in the compression velocity
        // u_c = (|ΔV|/V) · (l/Δt), the standard von Neumann–Richtmyer form.
        let delv = m.delv[e];
        let q = if delv < 0.0 {
            let strain_rate = -delv / vol.max(1e-12);
            let u_c = strain_rate * length / self.dt;
            2.0 * dens * u_c * u_c
        } else {
            0.0
        };
        out[0] = coef;
        out[1] = q;
        out[2] = ss;
    }

    fn store(&mut self, e: usize, out: &[f64]) {
        set3(&mut self.mesh.hg_coef, e, [out[0], out[0], out[0]]);
        self.mesh.visc[e] = out[1];
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        // Volume gradients + coefficient math; reads element state plus the
        // 8 corner coordinates (partially scattered). In real LULESH this
        // kernel computes 8x3 volume derivatives (~300 FP ops).
        CostProfile::new()
            .flops(300.0)
            .sfu(2.0)
            .global_read(
                lanes,
                8 * 3 * 8,
                AccessPattern::Strided { stride_bytes: 96 },
            )
            .global_read(lanes, 24, AccessPattern::Coalesced)
            .global_write(lanes, 24, AccessPattern::Coalesced)
    }
}

/// Approximated kernel 2: `CalcFBHourglassForceForElems` — the
/// Flanagan-Belytschko antihourglass force from nodal velocities.
struct HgForceBody<'a> {
    mesh: &'a mut Mesh,
}

impl RegionBody for HgForceBody<'_> {
    fn in_dim(&self) -> usize {
        4
    }

    fn out_dim(&self) -> usize {
        3
    }

    fn inputs(&self, e: usize, buf: &mut [f64]) {
        let hv = self.mesh.hg_mode_vel(e);
        buf[0] = self.mesh.hg_coef[3 * e];
        buf[1] = hv[0];
        buf[2] = hv[1];
        buf[3] = hv[2];
    }

    fn compute(&self, e: usize, out: &mut [f64]) {
        let coef = get3(&self.mesh.hg_coef, e);
        let hv = self.mesh.hg_mode_vel(e);
        let mv = self.mesh.mean_corner_vel(e);
        // Damping force opposing the hourglass mode plus the linear bulk
        // viscosity drag on local motion (standard staggered-hydro pairing;
        // this is what makes the kernel's output load-bearing for the QoI).
        out[0] = -coef[0] * (hv[0] + 0.25 * mv[0]);
        out[1] = -coef[1] * (hv[1] + 0.25 * mv[1]);
        out[2] = -coef[2] * (hv[2] + 0.25 * mv[2]);
    }

    fn store(&mut self, e: usize, out: &[f64]) {
        set3(&mut self.mesh.hg_f, e, [out[0], out[1], out[2]]);
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        // Reads 8 corner velocities (scattered) + coefficients; the real
        // FB kernel is the most FLOP-heavy in LULESH (8 nodes x 4 gamma
        // vectors x 3 directions of dot products).
        CostProfile::new()
            .flops(500.0)
            .global_read(
                lanes,
                8 * 3 * 8,
                AccessPattern::Strided { stride_bytes: 96 },
            )
            .global_read(lanes, 24, AccessPattern::Coalesced)
            .global_write(lanes, 24, AccessPattern::Coalesced)
    }
}

/// Accurate per-element stress force (σ = -p - q, pushing corners outward).
struct StressBody<'a> {
    mesh: &'a mut Mesh,
    area: f64,
}

impl RegionBody for StressBody<'_> {
    fn out_dim(&self) -> usize {
        3
    }

    fn compute(&self, e: usize, out: &mut [f64]) {
        let m = &self.mesh;
        let sig = m.pressure[e] + m.visc[e];
        let f = sig * self.area;
        out[0] = f;
        out[1] = f;
        out[2] = f;
    }

    fn store(&mut self, e: usize, out: &[f64]) {
        set3(&mut self.mesh.stress_f, e, [out[0], out[1], out[2]]);
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(40.0)
            .global_read(lanes, 32, AccessPattern::Coalesced)
            .global_write(lanes, 24, AccessPattern::Coalesced)
    }
}

/// Accurate node kernel: gather element forces, integrate kinematics.
struct NodeBody<'a> {
    mesh: &'a mut Mesh,
    dt: f64,
}

impl RegionBody for NodeBody<'_> {
    fn out_dim(&self) -> usize {
        3
    }

    fn compute(&self, n: usize, out: &mut [f64]) {
        let m = &self.mesh;
        let mut f = [0.0; 3];
        for &(e, corner) in &m.topo.node_elems[n] {
            let sf = get3(&m.stress_f, e);
            let hf = get3(&m.hg_f, e);
            for (d, fd) in f.iter_mut().enumerate() {
                // Stress pushes corners outward; the hourglass/viscous
                // damping force applies uniformly to the element's corners
                // (a checkerboard application would cancel between adjacent
                // elements on smooth fields and decouple the kernel from
                // the QoI).
                *fd += sf[d] * stress_sign(corner, d) + hf[d];
            }
        }
        lane::copy(out, &f);
    }

    fn store(&mut self, n: usize, out: &[f64]) {
        let m = &mut *self.mesh;
        set3(&mut m.force, n, [out[0], out[1], out[2]]);
        let inv_m = 1.0 / m.topo.mass[n];
        for (d, &o) in out.iter().enumerate() {
            let a = o * inv_m;
            let v = m.vel[3 * n + d] + a * self.dt;
            m.vel[3 * n + d] = v;
            m.pos[3 * n + d] += v * self.dt;
        }
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(8.0 * 8.0 + 12.0)
            .global_read(lanes, 8 * 24, AccessPattern::Strided { stride_bytes: 96 })
            .global_write(lanes, 72, AccessPattern::Coalesced)
    }
}

/// Accurate element EOS/volume update.
struct EosBody<'a> {
    mesh: &'a mut Mesh,
}

impl RegionBody for EosBody<'_> {
    fn out_dim(&self) -> usize {
        4
    }

    fn compute(&self, e: usize, out: &mut [f64]) {
        let m = &self.mesh;
        let vnew = m.elem_volume(e);
        let delv = vnew - m.volume[e];
        // Compression work dE = -(p + q) dV with the (approximated) q from
        // the hourglass-control kernel; with the ideal-gas pressure
        // p = (γ-1) e / V below, free expansion is adiabatic (e ∝ V^{1-γ})
        // and energy stays positive.
        let work = -(m.pressure[e] + m.visc[e]) * delv;
        let e_new = (m.energy[e] + work).max(0.0);
        let p_new = (2.0 / 3.0) * e_new / vnew.max(1e-12);
        out[0] = vnew;
        out[1] = e_new;
        out[2] = p_new;
        out[3] = delv;
    }

    fn store(&mut self, e: usize, out: &[f64]) {
        let m = &mut *self.mesh;
        m.volume[e] = out[0];
        m.energy[e] = out[1];
        m.pressure[e] = out[2];
        m.delv[e] = out[3];
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(60.0)
            .sfu(1.0)
            .global_read(lanes, 8 * 24, AccessPattern::Strided { stride_bytes: 96 })
            .global_write(lanes, 32, AccessPattern::Coalesced)
    }
}

impl Benchmark for Lulesh {
    fn name(&self) -> &'static str {
        "LULESH"
    }

    fn params_key(&self) -> Option<Vec<u64>> {
        let Lulesh {
            edge,
            steps,
            e0,
            hgcoef,
            dt,
        } = *self;
        Some(eval_key(
            self.name(),
            &[
                edge as u64,
                steps as u64,
                e0.to_bits(),
                hgcoef.to_bits(),
                dt.to_bits(),
            ],
        ))
    }

    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        let mut mesh = Mesh::new(self);
        let n_elems = mesh.topo.n_elems;
        let n_nodes = mesh.topo.n_nodes;
        let area = (1.0 / self.edge as f64).powi(2);

        // The five kernels of a timestep run one after another: 2 reads
        // hg_coef from 1, 3 reads visc from 1, 4 reads stress_f/hg_f from
        // 3/2, 5 reads pos from 4. None of them checks the cost ceiling, so
        // a LULESH run never aborts early; checking it would change which
        // evaluations the tuner completes, and with them its plans.
        let mut acc = RunAccumulator::new(&ExecOptions {
            abort_above_seconds: None,
            ..*opts
        });
        acc.transfer(spec, (n_nodes * 10 * 8 + n_elems * 6 * 8) as u64);

        let elem_launch =
            LaunchConfig::for_items_per_thread(n_elems, lp.block_size, lp.items_per_thread);
        let node_launch = LaunchConfig::one_item_per_thread(n_nodes, lp.block_size);
        let elem_acc_launch = LaunchConfig::one_item_per_thread(n_elems, lp.block_size);
        let mut launch = |lc: &LaunchConfig, region, body: &mut dyn RegionBody| {
            acc.launch(|o| approx_parallel_for_opts(spec, lc, region, body, o))
        };
        for _ in 0..self.steps {
            // 1. Hourglass control + artificial viscosity (approximated).
            let mut hg_control = HgControlBody {
                mesh: &mut mesh,
                hgcoef: self.hgcoef,
                dt: self.dt,
            };
            launch(&elem_launch, region, &mut hg_control)?;
            // 2. FB hourglass force (approximated).
            launch(&elem_launch, region, &mut HgForceBody { mesh: &mut mesh })?;
            // 3. Stress force (accurate).
            let mut stress = StressBody {
                mesh: &mut mesh,
                area,
            };
            launch(&elem_acc_launch, None, &mut stress)?;
            // 4. Node gather + integration (accurate).
            let mut node = NodeBody {
                mesh: &mut mesh,
                dt: self.dt,
            };
            launch(&node_launch, None, &mut node)?;
            // 5. EOS / volume update (accurate).
            launch(&elem_acc_launch, None, &mut EosBody { mesh: &mut mesh })?;
        }

        acc.transfer(spec, (n_elems * 8) as u64);
        // QoI: final origin energy.
        let qoi = QoI::Values(vec![mesh.energy[0]]);
        Ok(acc.finish(qoi, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_core::params::PerfoKind;

    fn spec() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn small() -> Lulesh {
        Lulesh {
            edge: 8,
            steps: 16,
            dt: 1.0e-4,
            ..Lulesh::default()
        }
    }

    #[test]
    fn mesh_connectivity_is_consistent() {
        let mesh = Mesh::new(&small());
        assert_eq!(mesh.topo.n_elems, 512);
        assert_eq!(mesh.topo.n_nodes, 729);
        // Interior nodes touch 8 elements, corner nodes 1.
        let counts: Vec<usize> = mesh.topo.node_elems.iter().map(|v| v.len()).collect();
        assert_eq!(counts.iter().max(), Some(&8));
        assert_eq!(counts.iter().min(), Some(&1));
        // Total (element, corner) incidences = 8 per element.
        let total: usize = counts.iter().sum();
        assert_eq!(total, mesh.topo.n_elems * 8);
    }

    #[test]
    fn initial_volumes_match_h_cubed() {
        let cfg = small();
        let mesh = Mesh::new(&cfg);
        let h3 = (1.0 / cfg.edge as f64).powi(3);
        for e in [0, 100, 511] {
            assert!((mesh.elem_volume(e) - h3).abs() < 1e-12);
        }
    }

    #[test]
    fn node_mass_conserves_total() {
        let mesh = Mesh::new(&small());
        let total: f64 = mesh.topo.mass.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "unit cube mass {total}");
    }

    #[test]
    fn sedov_energy_spreads_from_origin() {
        let cfg = small();
        let r = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        let QoI::Values(q) = &r.qoi else { panic!() };
        let origin_energy = q[0];
        assert!(origin_energy.is_finite());
        assert!(
            origin_energy < cfg.e0,
            "blast must shed energy from the origin: {origin_energy}"
        );
        assert!(origin_energy > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = small();
        let a = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        let b = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        assert_eq!(a.qoi, b.qoi);
    }

    #[test]
    fn cost_ceiling_never_aborts_a_run() {
        // A ceiling below the run's own modeled seconds changes nothing:
        // the run completes with the unbounded run's QoI and seconds.
        let cfg = small();
        let lp = LaunchParams::new(8, 128);
        let region = ApproxRegion::memo_out(2, 8, 0.5);
        let bits = |qoi: &QoI| -> Vec<u64> {
            let QoI::Values(v) = qoi else { panic!() };
            v.iter().map(|x| x.to_bits()).collect()
        };
        for region in [None, Some(&region)] {
            let unbounded = cfg.run(&spec(), region, &lp).unwrap();
            for ceiling in [0.0, 0.5 * unbounded.kernel_seconds] {
                let opts = ExecOptions {
                    abort_above_seconds: Some(ceiling),
                    ..ExecOptions::default()
                };
                let bounded = cfg
                    .run_opts(&spec(), region, &lp, &opts)
                    .expect("LULESH ignores the cost ceiling");
                assert_eq!(
                    bits(&bounded.qoi),
                    bits(&unbounded.qoi),
                    "{region:?} at {ceiling}"
                );
                assert_eq!(
                    bounded.kernel_seconds.to_bits(),
                    unbounded.kernel_seconds.to_bits(),
                    "{region:?} at {ceiling}"
                );
            }
        }
    }

    #[test]
    fn taf_zero_threshold_is_exact() {
        let cfg = small();
        let lp = LaunchParams::new(8, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_out(2, 8, 0.0);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        assert!(approx.qoi.error_vs(&accurate.qoi) < 1e-9);
    }

    #[test]
    fn taf_bounded_error_and_sheds_work() {
        let cfg = small();
        let lp = LaunchParams::new(32, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_out(2, 32, 0.9);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(err < 0.25, "origin-energy error {err}");
        assert!(approx.stats.approx_lanes > 0);
    }

    #[test]
    fn perforation_speedup_with_modest_error() {
        let cfg = small();
        let lp = LaunchParams::new(32, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::perfo(PerfoKind::Small { m: 4 });
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(err < 0.5, "perfo error {err}");
        assert!(approx.kernel_seconds < accurate.kernel_seconds);
    }

    #[test]
    fn fini_perforation_less_error_than_ini() {
        // Paper: "fini perforation induces less error than ini, indicating
        // that the first iterations contribute more to the output".
        // For perforated *kernels* this maps to dropping trailing elements
        // (far from the blast) vs leading elements (the origin region).
        let cfg = small();
        let lp = LaunchParams::new(8, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let ini = ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.3 });
        let fini = ApproxRegion::perfo(PerfoKind::Fini { fraction: 0.3 });
        let e_ini = cfg
            .run(&spec(), Some(&ini), &lp)
            .unwrap()
            .qoi
            .error_vs(&accurate.qoi);
        let e_fini = cfg
            .run(&spec(), Some(&fini), &lp)
            .unwrap()
            .qoi
            .error_vs(&accurate.qoi);
        assert!(
            e_fini <= e_ini + 1e-12,
            "fini ({e_fini}) should not exceed ini ({e_ini})"
        );
    }
}
