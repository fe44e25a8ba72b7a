// SVG renderer tests: document well-formedness, coordinate mapping (y-flip,
// fit-to-canvas), element emission, figure composition, file output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "geom/angle.hpp"
#include "sim/placement.hpp"
#include "viz/figures.hpp"
#include "viz/svg.hpp"

namespace stig::viz {
namespace {

std::size_t count_substr(const std::string& hay, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Svg, EmptySceneIsAValidDocument) {
  SvgScene scene;
  const std::string doc = scene.str();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
}

TEST(Svg, EmitsOneElementPerShape) {
  SvgScene scene;
  scene.circle(geom::Vec2{0, 0}, 1.0, Style{});
  scene.line(geom::Vec2{0, 0}, geom::Vec2{1, 1}, Style{});
  scene.dot(geom::Vec2{2, 2}, 0.1, "red");
  scene.text(geom::Vec2{1, 0}, "hello", 10.0);
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<circle"), 2u);  // circle + dot.
  EXPECT_EQ(count_substr(doc, "<line"), 1u);
  EXPECT_EQ(count_substr(doc, "<text"), 1u);
  EXPECT_NE(doc.find("hello"), std::string::npos);
}

TEST(Svg, EscapesTextContent) {
  SvgScene scene;
  scene.text(geom::Vec2{0, 0}, "a<b & \"c\"", 10.0);
  const std::string doc = scene.str();
  EXPECT_NE(doc.find("a&lt;b &amp; &quot;c&quot;"), std::string::npos);
  EXPECT_EQ(doc.find("a<b"), std::string::npos);
}

TEST(Svg, YAxisIsFlipped) {
  // World point with larger y must appear with *smaller* SVG y.
  SvgScene scene;
  scene.dot(geom::Vec2{0, 0}, 0.01, "black");
  scene.dot(geom::Vec2{0, 10}, 0.01, "black");
  const std::string doc = scene.str();
  // Two cy values; the second dot (y=10) must come out above (smaller cy).
  const auto cy1 = doc.find("cy=\"");
  const auto cy2 = doc.find("cy=\"", cy1 + 1);
  ASSERT_NE(cy2, std::string::npos);
  const double v1 = std::stod(doc.substr(cy1 + 4));
  const double v2 = std::stod(doc.substr(cy2 + 4));
  EXPECT_GT(v1, v2);
}

TEST(Svg, FitsCanvas) {
  SvgScene scene(400.0, 10.0);
  scene.dot(geom::Vec2{-100, -100}, 1, "black");
  scene.dot(geom::Vec2{300, 300}, 1, "black");
  const std::string doc = scene.str();
  // Canvas width is bounded by the requested 400 + margins.
  const auto wpos = doc.find("width=\"");
  const double width = std::stod(doc.substr(wpos + 7));
  EXPECT_LE(width, 401.0);
}

TEST(Svg, PolygonAndPolyline) {
  SvgScene scene;
  scene.polygon(geom::ConvexPolygon::rectangle(0, 0, 2, 1), Style{});
  const std::vector<geom::Vec2> path{geom::Vec2{0, 0}, geom::Vec2{1, 2},
                                     geom::Vec2{2, 0}};
  scene.polyline(path, Style{});
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<polygon"), 1u);
  EXPECT_EQ(count_substr(doc, "<polyline"), 1u);
}

TEST(Svg, GranularDrawsDiametersAndLabels) {
  SvgScene scene;
  const geom::Granular g(geom::Vec2{0, 0}, 2.0, 5, geom::Vec2{0, 1});
  scene.granular(g, Style{}, Style{});
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<line"), 5u);   // One per diameter.
  EXPECT_EQ(count_substr(doc, "<text"), 5u);   // One label per diameter.
  EXPECT_EQ(count_substr(doc, "<circle"), 1u); // The disc.
}

TEST(Svg, DashAndStyleAttributesEmitted) {
  SvgScene scene;
  Style s;
  s.stroke = "#123456";
  s.dash = "4 2";
  s.opacity = 0.5;
  scene.circle(geom::Vec2{0, 0}, 1.0, s);
  const std::string doc = scene.str();
  EXPECT_NE(doc.find("stroke=\"#123456\""), std::string::npos);
  EXPECT_NE(doc.find("stroke-dasharray=\"4 2\""), std::string::npos);
  EXPECT_NE(doc.find("opacity=\"0.500\""), std::string::npos);
}

TEST(Svg, WritesFile) {
  SvgScene scene;
  scene.dot(geom::Vec2{0, 0}, 1, "blue");
  const std::string path = ::testing::TempDir() + "stig_viz_test.svg";
  ASSERT_TRUE(scene.write(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, scene.str());
  std::remove(path.c_str());
}

TEST(Figures, DrawSwarmComposesEverything) {
  sim::Rng rng(3);
  const std::vector<geom::Vec2> pts = sim::scatter(rng, 6, 10.0, 2.0);
  SwarmDrawing what;
  what.voronoi = true;
  what.diameters = 6;
  what.sec = true;
  what.horizon_of = 0;
  what.naming = proto::NamingMode::relative;
  const SvgScene scene = draw_swarm(pts, what);
  const std::string doc = scene.str();
  EXPECT_GE(count_substr(doc, "<polygon"), 6u);          // Voronoi cells.
  EXPECT_GE(count_substr(doc, "<line"), 6u * 6u);        // Diameters.
  EXPECT_GE(count_substr(doc, "<circle"), 6u + 1u + 6u); // Discs+SEC+dots.
}

TEST(Figures, TrajectoriesOnePolylinePerRobot) {
  std::vector<std::vector<geom::Vec2>> history;
  for (int t = 0; t < 10; ++t) {
    history.push_back({geom::Vec2{static_cast<double>(t), 0},
                       geom::Vec2{0, static_cast<double>(t)}});
  }
  SvgScene scene;
  draw_trajectories(scene, history);
  const std::string doc = scene.str();
  EXPECT_EQ(count_substr(doc, "<polyline"), 2u);
}

TEST(Figures, PaletteCycles) {
  EXPECT_EQ(robot_color(0), robot_color(8));
  EXPECT_NE(robot_color(0), robot_color(1));
}

}  // namespace
}  // namespace stig::viz
